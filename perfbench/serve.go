package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hmem"
	hexec "hmem/internal/exec"
	"hmem/internal/experiments"
	"hmem/internal/load"
	"hmem/internal/report"
	"hmem/internal/service"
	"hmem/internal/workload"
)

// serveWorkload is one hmemd traffic workload.
type serveWorkload struct {
	profile     string // load.OpAt operation mix
	records     int    // hmemd -records
	faultTrials int    // hmemd -fault-trials (0 = hmemd's default)
	warm        bool   // warm every key the mix can ask for before timing
	probes      int    // extra daemon starts timed for setup_s alone
}

var serveWorkloads = map[string]serveWorkload{
	"serve-warm": {profile: "mixed", records: 1000, faultTrials: 2000, warm: true},
	// A cold start is tens of milliseconds, so several are timed and the
	// median reported; the warm workload's set-up is dominated by its
	// seconds-long warm-up and is timed once.
	"serve-cold": {profile: "hostile", records: 4000, probes: 4},
}

const (
	// clients is the closed loop's size: hmemd's callers (the typed client,
	// sweep scripts) each wait for a reply before sending the next request.
	clients = 2
	// serveProcs is hmemd's CPU budget: -parallel and GOMAXPROCS.
	serveProcs = 2
	// verifyResults is how many distinct evaluate results are recomputed
	// by an in-process engine after the timed window.
	verifyResults = 8
	// warmSeeds is the option-seed range load.OpAt draws from for
	// cache-friendly profiles (seeds 1..4).
	warmSeeds = 4
	// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times, which
	// Linux fixes at 100.
	clockTicks = 100
)

func serveRecords(cfg runConfig, w serveWorkload) int {
	if cfg.records > 0 {
		return cfg.records
	}
	return w.records
}

// schedule returns the operation sequence of a run. A cache-friendly mix is
// load.OpAt's schedule for the run's seed. A cache-hostile mix takes its
// classes, workloads and policies from the published seed and lets the
// run's seed pick every operation's (unique) simulation seed instead: a
// hostile operation costs up to four policy simulations, so schedules drawn
// per seed would differ in work by more than the noise worth detecting.
func schedule(w serveWorkload, seed uint64) func(i uint64) load.Op {
	prof, _ := load.ProfileByName(w.profile)
	if !prof.CacheHostile {
		return func(i uint64) load.Op { return load.OpAt(prof, seed, i) }
	}
	published := experiments.DefaultOptions().Seed
	return func(i uint64) load.Op {
		op := load.OpAt(prof, published, i)
		op.Seed = seed<<32 | (i + 1)
		return op
	}
}

// tailBuffer keeps the last 8 KiB written to it: hmemd's log, shown when
// the daemon fails.
type tailBuffer struct {
	mu sync.Mutex
	b  []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > 8192 {
		t.b = t.b[len(t.b)-8192:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}

// daemon is a running hmemd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
	err  error // Wait's result, set before done closes
	logs *tailBuffer
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return strconv.Itoa(ln.Addr().(*net.TCPAddr).Port), nil
}

// startDaemon starts hmemd and returns once /healthz answers 200.
func startDaemon(cfg runConfig, w serveWorkload) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:" + port, "-records", strconv.Itoa(serveRecords(cfg, w)),
		"-parallel", strconv.Itoa(serveProcs), "-drain-timeout", "20s"}
	if w.faultTrials > 0 {
		args = append(args, "-fault-trials", strconv.Itoa(w.faultTrials))
	}
	d := &daemon{
		cmd:  exec.Command(cfg.hmemd, args...),
		base: "http://127.0.0.1:" + port,
		done: make(chan struct{}),
		logs: &tailBuffer{},
	}
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serveProcs))
	d.cmd.Stdout, d.cmd.Stderr = d.logs, d.logs
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting hmemd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	if err := d.awaitHealthy(30 * time.Second); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

func (d *daemon) awaitHealthy(limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for {
		if resp, err := hc.Get(d.base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hmemd not healthy after %s\n%s", limit, d.logs)
		}
		select {
		case <-d.done:
			return fmt.Errorf("hmemd exited during start-up: %v\n%s", d.err, d.logs)
		case <-time.After(time.Millisecond):
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM and waits for the drain; hmemd must exit 0.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling hmemd: %w", err)
	}
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("hmemd did not exit within 60s of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("hmemd exited uncleanly after SIGTERM: %v\n%s", d.err, d.logs)
	}
	return nil
}

// kill ends the daemon unconditionally and waits for it; a no-op once it
// has exited.
func (d *daemon) kill() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Kill() // fails only if the process is already gone
	<-d.done
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// f[0] is field 3; utime and stime are fields 14 and 15.
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSSMB returns a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape reads the label-free series of a /metrics page.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		l := sc.Text()
		if l == "" || l[0] == '#' || strings.ContainsRune(l, '{') {
			continue
		}
		name, val, ok := strings.Cut(l, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// evalKey identifies one evaluation: what a result must depend on alone.
type evalKey struct {
	workload string
	policy   hmem.PolicyName
	seed     uint64
}

// validator checks every response and holds the first bytes seen for each
// key, which every later answer for that key must repeat exactly.
type validator struct {
	mu       sync.Mutex
	results  map[evalKey][]byte
	tables   map[string][]byte
	evaluate map[evalKey]bool // keys answered by an evaluate operation
}

func newValidator() *validator {
	return &validator{results: map[evalKey][]byte{}, tables: map[string][]byte{}, evaluate: map[evalKey]bool{}}
}

func (v *validator) result(k evalKey, res hmem.Result, fromEvaluate bool) error {
	if res.Workload != k.workload || res.Policy != k.policy {
		return fmt.Errorf("asked %s/%s, answered %s/%s", k.workload, k.policy, res.Workload, res.Policy)
	}
	for _, x := range []float64{res.IPC, res.IPCvsDDROnly, res.SERvsDDROnly, res.MeanAVF} {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return fmt.Errorf("%s/%s seed %d: non-finite or negative value in %+v", k.workload, k.policy, k.seed, res)
		}
	}
	if res.IPC == 0 || res.IPCvsDDROnly == 0 || res.MeanAVF > 1 {
		return fmt.Errorf("%s/%s seed %d: implausible result %+v", k.workload, k.policy, k.seed, res)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		return err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if prev, ok := v.results[k]; !ok {
		v.results[k] = buf
	} else if !bytes.Equal(prev, buf) {
		return fmt.Errorf("%s/%s seed %d: repeated key answered %s, first %s", k.workload, k.policy, k.seed, buf, prev)
	}
	if fromEvaluate {
		v.evaluate[k] = true
	}
	return nil
}

func (v *validator) table(key string, t *report.Table) error {
	if t == nil || t.Title == "" || len(t.Rows) == 0 {
		return fmt.Errorf("job %s: empty result table", key)
	}
	buf, err := json.Marshal(t)
	if err != nil {
		return err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if prev, ok := v.tables[key]; !ok {
		v.tables[key] = buf
	} else if !bytes.Equal(prev, buf) {
		return fmt.Errorf("job %s: repeated experiment answered a different table", key)
	}
	return nil
}

// evaluated returns the keys answered by evaluate operations, sorted.
func (v *validator) evaluated() []evalKey {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]evalKey, 0, len(v.evaluate))
	for k := range v.evaluate {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.seed != b.seed {
			return a.seed < b.seed
		}
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		return a.policy < b.policy
	})
	return keys
}

// verifyAgainstEngine recomputes the first verifyResults evaluate results
// with an in-process engine and requires the daemon's bytes.
func verifyAgainstEngine(v *validator, records, faultTrials int) error {
	keys := v.evaluated()
	if len(keys) == 0 {
		return errors.New("no evaluate result to verify")
	}
	if len(keys) > verifyResults {
		keys = keys[:verifyResults]
	}
	engines := map[uint64]*hmem.Engine{}
	for _, k := range keys {
		if engines[k.seed] != nil {
			continue
		}
		e, err := hmem.NewEngine(&hmem.Options{RecordsPerCore: records, FaultTrials: faultTrials, Seed: k.seed, Parallel: 1})
		if err != nil {
			return err
		}
		engines[k.seed] = e
	}
	ctx := context.Background()
	_, err := hexec.Map(ctx, clients, len(keys), func(i int) (struct{}, error) {
		k := keys[i]
		res, err := engines[k.seed].Evaluate(ctx, k.workload, k.policy)
		if err != nil {
			return struct{}{}, err
		}
		buf, err := json.Marshal(res)
		if err != nil {
			return struct{}{}, err
		}
		v.mu.Lock()
		served := v.results[k]
		v.mu.Unlock()
		if !bytes.Equal(buf, served) {
			return struct{}{}, fmt.Errorf("%s/%s seed %d: hmemd answered %s, the engine computes %s", k.workload, k.policy, k.seed, served, buf)
		}
		return struct{}{}, nil
	})
	return err
}

// newClient returns a typed client on its own single connection, without
// retries: a failed operation counts as failed.
func newClient(base string) (*service.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &service.Client{BaseURL: base, HTTPClient: &http.Client{Transport: tr}}, tr
}

// runBatch posts one batch of single-policy items sharing an option seed
// and checks every line.
func runBatch(ctx context.Context, c *service.Client, items []service.BatchItem, seed uint64, v *validator) error {
	lines, sum, err := c.CollectBatch(ctx, service.BatchRequest{Items: items})
	if err != nil {
		return err
	}
	if sum.Items != len(items) || sum.Errors != 0 || len(lines) != len(items) {
		return fmt.Errorf("batch of %d: %d lines, summary %+v", len(items), len(lines), sum)
	}
	for i, l := range lines {
		res, err := l.Evaluation()
		if err != nil {
			return err
		}
		if err := v.result(evalKey{items[i].Workload, items[i].Policy, seed}, res, false); err != nil {
			return err
		}
	}
	return nil
}

// batchItems builds one single-policy item per policy for operation index.
func batchItems(index uint64, workloadName string, policies []hmem.PolicyName, seed uint64) []service.BatchItem {
	items := make([]service.BatchItem, len(policies))
	for i, p := range policies {
		items[i] = service.BatchItem{ID: fmt.Sprintf("op%d-%d", index, i), Workload: workloadName,
			Policy: p, Options: &service.OptionsPatch{Seed: seed}}
	}
	return items
}

// warmUp sends one /v1/batch per (workload, option seed) of the mixed
// profile, for all policies, so that the timed window only hits the
// result cache. It then waits for hmemd's health to read ok.
//
// The batches go one at a time: hmemd already runs a batch's items on both
// CPUs, and each batch prices its ten fresh results at ten admission
// units. Two clients could briefly hold three batches in flight (a handler
// releases its cost only after the client has its last line), which is
// past the degraded threshold (24 units of the default 32); hmemd then
// refuses job submissions for the two seconds it holds that state.
func warmUp(base string, v *validator) error {
	c, tr := newClient(base)
	defer tr.CloseIdleConnections()
	i := uint64(0)
	for seed := uint64(1); seed <= warmSeeds; seed++ {
		for _, w := range hmem.Workloads() {
			if err := runBatch(context.Background(), c, batchItems(i, w, hmem.Policies(), seed), seed, v); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			i++
		}
	}
	return awaitHealthOK(base, 10*time.Second)
}

// awaitHealthOK polls /healthz until hmemd reports the ok rung.
func awaitHealthOK(base string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return err
		}
		var h struct {
			Status string `json:"status"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("decoding /healthz: %w", err)
		}
		if h.Status == "ok" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hmemd health still %q after %s", h.Status, limit)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// execOp performs one scripted operation and checks its answer.
func execOp(ctx context.Context, c *service.Client, op load.Op, runSeed uint64, v *validator) error {
	patch := &service.OptionsPatch{Seed: op.Seed}
	switch op.Class {
	case load.ClassEvaluate:
		res, err := c.Evaluate(ctx, service.EvaluateRequest{Workload: op.Workload, Policy: op.Policy, Options: patch})
		if err != nil {
			return err
		}
		return v.result(evalKey{op.Workload, op.Policy, op.Seed}, res, true)
	case load.ClassCompare:
		results, err := c.Compare(ctx, service.CompareRequest{Workload: op.Workload, Policies: op.Policies, Options: patch})
		if err != nil {
			return err
		}
		if len(results) != len(op.Policies) {
			return fmt.Errorf("compare of %d policies answered %d results", len(op.Policies), len(results))
		}
		for i, res := range results {
			if err := v.result(evalKey{op.Workload, op.Policies[i], op.Seed}, res, false); err != nil {
				return err
			}
		}
		return nil
	case load.ClassBatch:
		return runBatch(ctx, c, batchItems(op.Index, op.Workload, op.Policies, op.Seed), op.Seed, v)
	case load.ClassSubmit, load.ClassWatch:
		// Both await the job over the watch stream: the client never sleeps
		// between polls inside the timed path.
		st, err := c.SubmitJob(ctx, service.JobRequest{Experiment: op.Experiment, Options: patch,
			IdempotencyKey: fmt.Sprintf("perfbench-%d-%d", runSeed, op.Index)})
		if err != nil {
			return err
		}
		final, err := c.WaitJob(ctx, st.ID, nil)
		if err != nil {
			return err
		}
		if final.State != service.JobDone {
			return fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error)
		}
		return v.table(fmt.Sprintf("%s/seed %d", op.Experiment, op.Seed), final.Result)
	case load.ClassList:
		jobs, total, err := c.Jobs(ctx, op.Limit, op.Offset)
		if err != nil {
			return err
		}
		if len(jobs) > op.Limit || total < len(jobs) {
			return fmt.Errorf("list limit %d answered %d jobs of %d", op.Limit, len(jobs), total)
		}
		return nil
	default:
		return fmt.Errorf("unknown operation class %q", op.Class)
	}
}

// window is one timed stretch of closed-loop traffic.
type window struct {
	latencies []float64 // milliseconds per operation; +Inf for a failed one
	busy      time.Duration
	elapsed   time.Duration
	ops       int64 // operations attempted, failed ones included
	failed    int64
	failures  []string
	next      uint64 // the first operation index not issued
	spans     []span
}

// drive runs clients closed-loop workers over operations startOp, startOp+1,
// ... of ops for d. An operation cut off by the end of the window is
// discarded; it says nothing about the server.
func drive(base string, ops func(uint64) load.Op, seed, startOp uint64, d time.Duration, v *validator, spansFrom time.Time) window {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	var cursor atomic.Uint64
	cursor.Store(startOp)
	parts := make([]window, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, tr := newClient(base)
			defer tr.CloseIdleConnections()
			p := &parts[w]
			for ctx.Err() == nil {
				op := ops(cursor.Add(1) - 1)
				t0 := time.Now()
				err := execOp(ctx, c, op, seed, v)
				lat := time.Since(t0)
				if err != nil && ctx.Err() != nil {
					break
				}
				p.ops++
				p.busy += lat
				ms := 1e3 * lat.Seconds()
				if err != nil {
					// A failed operation misses any latency limit.
					ms = math.Inf(1)
					p.failed++
					if len(p.failures) < 5 {
						p.failures = append(p.failures, fmt.Sprintf("op %d (%s): %v", op.Index, op.Class, err))
					}
				}
				p.latencies = append(p.latencies, ms)
				if !spansFrom.IsZero() {
					p.spans = append(p.spans, span{Name: "client." + op.Class,
						StartNS: int64(t0.Sub(spansFrom)), EndNS: int64(t0.Add(lat).Sub(spansFrom))})
				}
			}
		}()
	}
	wg.Wait()
	out := window{elapsed: time.Since(start), next: cursor.Load()}
	for _, p := range parts {
		out.latencies = append(out.latencies, p.latencies...)
		out.busy += p.busy
		out.ops += p.ops
		out.failed += p.failed
		out.failures = append(out.failures, p.failures...)
		out.spans = append(out.spans, p.spans...)
	}
	return out
}

// rate is the window's successful operations per second.
func (w window) rate() float64 { return float64(w.ops-w.failed) / w.elapsed.Seconds() }

// record adds a window's operations and failures to the outcome.
func (w window) record(o *outcome) {
	o.attempted += w.ops
	o.failed += w.failed
	for _, f := range w.failures {
		o.problem("%s", f)
	}
}

// describe prints a window's latency summary: the median and the highest
// percentile with minBeyond samples beyond it, with the sample count.
func (w window) describe(name string) {
	s := sortedCopy(w.latencies)
	p50, _ := percentile(s, 500)
	msg := fmt.Sprintf("%d ops in %.2fs (%.1f/s), %d failed; p50 %.3fms", w.ops, w.elapsed.Seconds(), w.rate(), w.failed, p50)
	if pm, v, ok := tail(s); ok {
		msg += fmt.Sprintf(", p%g %.3fms", float64(pm)/10, v)
	}
	line(name, "%s (n=%d)", msg, len(s))
}

// runServe measures a real hmemd binary under closed-loop traffic.
func runServe(cfg runConfig) (*outcome, error) {
	w := serveWorkloads[cfg.workload]
	o := newOutcome()
	var setups []float64
	for i := 0; i < w.probes; i++ {
		start := time.Now()
		d, err := startDaemon(cfg, w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if err := d.stop(); err != nil {
			o.problem("%v", err)
		}
	}
	v := newValidator()
	start := time.Now()
	d, err := startDaemon(cfg, w)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	if w.warm {
		if err := warmUp(d.base, v); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	setups = append(setups, time.Since(start).Seconds())

	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	m0, err := scrape(d.base)
	if err != nil {
		return nil, err
	}
	win := drive(d.base, schedule(w, cfg.seed), cfg.seed, 0, cfg.window(), v, time.Time{})
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	m1, err := scrape(d.base)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		o.problem("%v", err)
	}
	win.record(o)
	win.describe(cfg.workload)
	if win.ops == 0 {
		return nil, errors.New("no operation completed in the timed window")
	}
	if err := verifyAgainstEngine(v, serveRecords(cfg, w), w.faultTrials); err != nil {
		o.problem("re-check against an in-process engine: %v", err)
	}
	p50, _ := percentile(sortedCopy(win.latencies), 500)
	o.values["setup_s"] = median(setups)
	o.values["p50_ms"] = p50
	o.values["throughput_ops"] = win.rate()
	o.values["cpu_ms_per_op"] = 1e3 * (cpu1 - cpu0).Seconds() / float64(win.ops)
	o.values["peak_rss_mb"] = rss
	delta := func(name string) float64 { return m1[name] - m0[name] }
	line(cfg.workload, "set-up %.3fs (n=%d); hmemd cpu %.2fs, peak rss %.0fMB; result cache %.0f hits / %.0f misses; shed %.0f",
		median(setups), len(setups), (cpu1 - cpu0).Seconds(), rss,
		delta("hmemd_result_cache_hits_total"), delta("hmemd_result_cache_misses_total"), delta("hmemd_admission_shed_total"))
	return o, nil
}

// layerSnapshot is the cumulative state a traced serve window is measured
// between.
type layerSnapshot struct {
	genNS, records, activeNS, handlerNS int64
	metrics                             map[string]float64
}

// traceServe hosts hmemd's service in-process, timing its handler and its
// trace streams, and splits the time of two closed-loop clients across
// layers. The window is halved: an untraced half first, then a traced one,
// whose throughputs give the tracing overhead.
func traceServe(cfg runConfig) (*outcome, error) {
	w := serveWorkloads[cfg.workload]
	ops := schedule(w, cfg.seed)
	o := newOutcome()
	var (
		tl        traceLayer
		tracing   atomic.Bool
		handlerNS atomic.Int64
	)
	svc, err := service.New(service.Config{
		// One worker per request, so simulation time never exceeds the
		// handler time that contains it.
		Defaults: hmem.Options{RecordsPerCore: serveRecords(cfg, w), FaultTrials: w.faultTrials, Parallel: 1},
		TraceWrap: func(_ string, s hmem.TraceStream) hmem.TraceStream {
			if tracing.Load() {
				return tl.wrap(s)
			}
			return s
		},
	})
	if err != nil {
		return nil, err
	}
	h := svc.Handler()
	srv := &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if !tracing.Load() {
			h.ServeHTTP(rw, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(rw, r)
		handlerNS.Add(int64(time.Since(start)))
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	snapshot := func() (layerSnapshot, error) {
		m, err := scrape(base)
		return layerSnapshot{tl.genNS.Load(), tl.records.Load(), tl.activeNS.Load(), handlerNS.Load(), m}, err
	}

	runStart := time.Now()
	v := newValidator()
	tracing.Store(true)
	if w.warm {
		if err := warmUp(base, v); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	tracing.Store(false)
	half := cfg.window() / 2
	plain := drive(base, ops, cfg.seed, 0, half, v, time.Time{})
	s0, err := snapshot()
	if err != nil {
		return nil, err
	}
	tracing.Store(true)
	traced := drive(base, ops, cfg.seed, plain.next, half, v, runStart)
	tracing.Store(false)
	s1, err := snapshot()
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		o.problem("service drain: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		o.problem("http drain: %v", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		o.problem("serving: %v", err)
	}
	plain.record(o)
	traced.record(o)
	plain.describe(cfg.workload + "/plain")
	traced.describe(cfg.workload + "/traced")
	if plain.ops == 0 || traced.ops == 0 {
		return nil, errors.New("no operation completed in a traced window")
	}

	base0 := float64(clients) * float64(traced.elapsed)
	busy := float64(traced.busy)
	handler := float64(s1.handlerNS - s0.handlerNS)
	gen := float64(s1.genNS - s0.genNS)
	simNS := float64(s1.activeNS-s0.activeNS)/workload.Cores - gen
	// Per-record costs count every traced stream, warm-up included: the
	// warm workload's window replays cached results and simulates nothing.
	genAll := float64(s1.genNS)
	simAll := float64(s1.activeNS)/workload.Cores - genAll
	recAll := float64(s1.records)
	delta := func(name string) float64 { return s1.metrics[name] - s0.metrics[name] }
	v2 := o.values
	v2["workload.generate_frac"] = gen / base0
	v2["workload.ns_per_record"] = ratio(genAll, recAll)
	v2["workload.records"] = float64(s1.records - s0.records)
	v2["trace.opens"] = delta("hmemd_trace_opens_total")
	v2["trace.coalesce_hits"] = delta("hmemd_coalesce_hits_total")
	v2["sim.run_frac"] = simNS / base0
	v2["sim.ns_per_record"] = ratio(simAll, recAll)
	v2["sim.runs"] = delta("hmem_sim_runs_total")
	v2["exec.memo_hits"] = delta("hmemd_engine_memo_hits_total")
	v2["exec.memo_misses"] = delta("hmemd_engine_memo_misses_total")
	v2["exec.memo_hit_ratio"] = ratio(v2["exec.memo_hits"], v2["exec.memo_hits"]+v2["exec.memo_misses"])
	v2["service.handler_frac"] = (handler - gen - simNS) / base0
	v2["http.transport_frac"] = (busy - handler) / base0
	v2["service.result_hits"] = delta("hmemd_result_cache_hits_total")
	v2["service.result_misses"] = delta("hmemd_result_cache_misses_total")
	v2["service.result_hit_ratio"] = ratio(v2["service.result_hits"], v2["service.result_hits"]+v2["service.result_misses"])
	v2["service.admitted"] = delta("hmemd_admission_admitted_total")
	v2["service.shed"] = delta("hmemd_admission_shed_total")
	v2["unattributed_frac"] = 1 - busy/base0
	v2["tracing_overhead_frac"] = plain.rate()/traced.rate() - 1
	fillZero(v2, perLayer)
	o.spans = traced.spans
	line(cfg.workload, "traced window per op: handler %.3fms, transport %.3fms",
		handler/1e6/float64(traced.ops), (busy-handler)/1e6/float64(traced.ops))
	return o, nil
}
