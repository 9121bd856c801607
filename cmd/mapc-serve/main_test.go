package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"
)

// TestFlags pins the command's flag names and defaults.
func TestFlags(t *testing.T) {
	want := map[string]string{
		"workers": "0", "simcache-mb": "512", "fidelity": "exact", "k": "2", "shares": "",
		"benchmarks": "", "batches": "", "scheme": "full",
		"addr": ":8080", "model": "", "max-inflight": "64", "max-batch": "64", "timeout": "30s",
		"grace": "30s", "pprof": "", "feature-cache-mb": "64", "snapshot": "", "warm-from": "",
		"peers": "", "brownout-watermark": "0.75", "max-degraded-inflight": "0",
	}
	got := map[string]string{}
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got[f.Name] = f.DefValue
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags\n  %v\nwant\n  %v", got, want)
	}
}
