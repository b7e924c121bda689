package workload

import (
	"fmt"
	"io"
	"strconv"

	"hmem/internal/trace"
	"hmem/internal/xrand"
)

// Structure is one program data structure: a contiguous page range sharing
// an access class. Structures are the unit of the paper's §7 program
// annotations.
type Structure struct {
	// Name is "<bench>.<class>.<n>" — stable across runs for a given seed.
	Name string
	// Class indexes the owning profile's Classes.
	Class int
	// FirstPage is the global page id of the structure's first page.
	FirstPage uint64
	// Pages is the structure's length in pages.
	Pages int
}

// strayReadProb is the chance an out-of-window access is a read instead of
// the usual masking write (rare late reuse of dead data).
const strayReadProb = 0.1

// Generator produces one core's synthetic memory trace. It implements
// trace.Stream and is fully deterministic in (profile, basePage, records,
// seed).
type Generator struct {
	prof     Profile
	rng      *xrand.RNG
	basePage uint64

	structures []Structure
	pageClass  []uint8
	pageHash   []uint8 // per-page line-subset offset
	pageCov    []uint8 // per-page effective coverage (class coverage, jittered)
	pageW      []uint8 // per-page write probability in percent (jittered)
	streamPos  []uint8 // per-page stream cursor (PatternStream/PatternBurst)
	pendRead   []int8  // per-page pending read-back line (PatternBurst), -1 none
	cdf        []float64
	totalW     float64

	total   int
	emitted int
	meanGap float64

	// Burst state: the page currently being streamed and accesses left.
	curPage   int
	burstLeft int
}

// NewGenerator builds a generator for prof emitting `records` records, with
// the core's pages starting at global page id basePage. Invalid profiles and
// negative record counts are returned as errors: profiles normally come from
// the compiled-in table, but callers can construct their own, and a bad one
// must fail its request, not the process.
func NewGenerator(prof Profile, basePage uint64, records int, seed uint64) (*Generator, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if records < 0 {
		return nil, fmt.Errorf("workload: negative record count %d", records)
	}
	g := &Generator{
		prof:     prof,
		rng:      xrand.New(seed),
		basePage: basePage,
		total:    records,
		meanGap:  1000 / prof.MPKI,
	}
	g.layout()
	g.weights()
	return g, nil
}

// layout partitions the footprint into class-homogeneous structures.
func (g *Generator) layout() {
	n := g.prof.FootprintPages
	g.pageClass = make([]uint8, n)
	g.pageHash = make([]uint8, n)
	g.streamPos = make([]uint8, n)
	g.pendRead = make([]int8, n)
	for i := range g.pendRead {
		g.pendRead[i] = -1
	}

	g.pageCov = make([]uint8, n)
	g.pageW = make([]uint8, n)

	page := 0
	for ci, class := range g.prof.Classes {
		classPages := int(class.Frac*float64(n) + 0.5)
		if ci == len(g.prof.Classes)-1 {
			classPages = n - page // absorb rounding in the last class
		}
		seq := 0
		for classPages > 0 {
			size := 1 + g.rng.Poisson(float64(g.prof.MeanStructPages)-1)
			if size > classPages {
				size = classPages
			}
			g.structures = append(g.structures, Structure{
				Name:      structName(g.prof.Name, class.Name, seq),
				Class:     ci,
				FirstPage: g.basePage + uint64(page),
				Pages:     size,
			})
			for i := 0; i < size; i++ {
				g.pageClass[page] = uint8(ci)
				g.pageHash[page] = uint8(g.rng.Uint64n(64))
				// Per-page jitter keeps neighbouring classes' AVF ranges
				// overlapping, as in the paper's scatter plots: real pages
				// spread continuously, they don't cluster at class means.
				cov := class.CoverageLines/2 + g.rng.Intn(class.CoverageLines+1)
				if cov < 2 {
					cov = 2
				}
				if cov > 64 {
					cov = 64
				}
				g.pageCov[page] = uint8(cov)
				w := class.WriteProb + (g.rng.Float64()-0.5)*0.4
				if w < 0.02 {
					w = 0.02
				}
				if w > 0.98 {
					w = 0.98
				}
				g.pageW[page] = uint8(w * 100)
				page++
			}
			classPages -= size
			seq++
		}
	}
}

// weights assigns each page a hotness weight: a Zipf rank drawn via a random
// permutation (so hotness is independent of class position) times the
// class's hot boost, then builds the sampling CDF.
func (g *Generator) weights() {
	n := g.prof.FootprintPages
	perm := g.rng.Perm(n)
	z := xrand.NewZipf(g.rng, g.prof.ZipfS, n)
	g.cdf = make([]float64, n)
	acc := 0.0
	uniform := 1.0 / float64(n)
	for p := 0; p < n; p++ {
		// Half the class's hotness mass is spread uniformly so a page's
		// class dominates its Zipf rank luck: a hot-class page is hot even
		// at an unlucky rank. The Zipf half preserves the long-tailed
		// hotness spread of the paper's Figure 4 scatter plots. Dividing by
		// the class burst length makes HotBoost govern *traffic* share
		// (each sample delivers Burst accesses).
		class := g.prof.Classes[g.pageClass[p]]
		burst := class.Burst
		if burst < 1 {
			burst = 1
		}
		w := (0.5*uniform + 0.5*z.Weight(perm[p])) * class.HotBoost / float64(burst)
		acc += w
		g.cdf[p] = acc
	}
	g.totalW = acc
}

// samplePage draws a page index proportional to hotness weight.
func (g *Generator) samplePage() int {
	u := g.rng.Float64() * g.totalW
	lo, hi := 0, len(g.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Next implements trace.Stream.
func (g *Generator) Next() (trace.Record, error) {
	if g.emitted >= g.total {
		return trace.Record{}, io.EOF
	}
	gap, page, line, kind := g.step()
	return trace.Record{
		Gap:  gap,
		Kind: kind,
		Addr: (g.basePage+uint64(page))*trace.PageSize + uint64(line)*trace.LineSize,
	}, nil
}

// step draws the next record: its instruction gap, core-local page, line
// within the page and kind (a read or a write). The caller checks that
// records remain.
func (g *Generator) step() (gap uint32, page, line int, kind trace.Kind) {
	phase := float64(g.emitted) / float64(g.total)

	// Burst continuation: once scheduled, a page receives Burst consecutive
	// accesses (the temporal locality of a post-cache miss stream), which
	// is what keeps DRAM rows open across its sequential lines.
	var class Class
	forceWrite := false
	newBurst := g.burstLeft <= 0
	if !newBurst {
		page = g.curPage
		class = g.prof.Classes[g.pageClass[page]]
		g.burstLeft--
	} else {
		// Sample a page whose class is live at this phase; if the retry
		// budget runs out, keep the page. Out-of-window hits are usually
		// writes (a stray write into a dead page only shortens ACE
		// intervals), but a small fraction are reads — rare late reuse of
		// "dead" data. Those stray reads close ACE intervals spanning much
		// of the run, giving low-risk pages a small but non-zero AVF floor,
		// as in the paper's scatter plots.
		forceWrite = true
		for try := 0; try < 16; try++ {
			page = g.samplePage()
			class = g.prof.Classes[g.pageClass[page]]
			if phase >= class.Window[0] && phase < class.Window[1] {
				forceWrite = false
				break
			}
		}
		if forceWrite && g.rng.Bool(strayReadProb) {
			forceWrite = false
		}
		burst := class.Burst
		if burst < 1 {
			burst = 1
		}
		g.curPage = page
		g.burstLeft = burst - 1
	}

	var write bool
	cov := int(g.pageCov[page])
	writeP := float64(g.pageW[page]) / 100
	switch class.Pattern {
	case PatternStream:
		// Consecutive lines: array sweeps are row-buffer friendly.
		pos := g.streamPos[page]
		g.streamPos[page] = uint8((int(pos) + 1) % cov)
		line = (int(g.pageHash[page]) + int(pos)) & 63
		write = forceWrite || g.rng.Bool(writeP)
	case PatternBurst:
		if pend := g.pendRead[page]; pend >= 0 && !forceWrite {
			// Consume the just-produced line: a read-back that closes a
			// short ACE interval.
			line = int(pend)
			write = false
			g.pendRead[page] = -1
		} else {
			pos := g.streamPos[page]
			g.streamPos[page] = uint8((int(pos) + 1) % cov)
			line = (int(g.pageHash[page]) + int(pos)) & 63
			write = true
			if !forceWrite {
				g.pendRead[page] = int8(line)
			}
		}
	default: // PatternRandom
		line = (int(g.pageHash[page]) + g.rng.Intn(cov)*37) & 63
		write = forceWrite || g.rng.Bool(writeP)
	}
	// Intra-burst accesses come nearly back-to-back; the burst-opening gap
	// carries the balance so MPKI (and so the record count per instruction)
	// is preserved.
	burst := class.Burst
	if burst < 1 {
		burst = 1
	}
	if newBurst {
		gap = uint32(g.rng.Poisson(g.meanGap * (1 + float64(burst-1)*7/8)))
	} else {
		gap = uint32(g.rng.Poisson(g.meanGap / 8))
	}

	kind = trace.Read
	if write {
		kind = trace.Write
	}
	g.emitted++
	return gap, page, line, kind
}

// Structures returns the generator's structure table.
func (g *Generator) Structures() []Structure { return g.structures }

// FootprintPages returns the per-core footprint size.
func (g *Generator) FootprintPages() int { return g.prof.FootprintPages }

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

func structName(bench, class string, seq int) string {
	return bench + "." + class + "." + strconv.Itoa(seq)
}
