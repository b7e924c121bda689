package core

import (
	"reflect"
	"testing"
)

func TestPolicyByName(t *testing.T) {
	for _, p := range StaticPolicies() {
		got, ok := PolicyByName(p.Name())
		if !ok || !reflect.DeepEqual(got, p) {
			t.Errorf("PolicyByName(%q) = %v, %v; want the policy back", p.Name(), got, ok)
		}
	}
	got, ok := PolicyByName("perf-fraction-0.125")
	if !ok || !reflect.DeepEqual(got, PerfFraction{F: 0.125}) {
		t.Errorf("perf-fraction-0.125: got %v, %v", got, ok)
	}
	for _, name := range []string{"", "unknown", "perf-fraction-", "perf-fraction-x", "perf-fraction-0.100"} {
		// "perf-fraction-0.100" renders back as "perf-fraction-0.1", so the
		// name does not round-trip and resolution must refuse it.
		if _, ok := PolicyByName(name); ok {
			t.Errorf("PolicyByName(%q) = true, want false", name)
		}
	}
}
