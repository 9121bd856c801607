package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"mapc/internal/dataset"
)

// TestFlags pins the command's flag names and defaults. -bag is the only
// way to name a bag; its default is the sift/surf pair at batch 20.
func TestFlags(t *testing.T) {
	want := map[string]string{
		"workers": "0", "simcache-mb": "512", "fidelity": "exact", "shares": "", "scheme": "full",
		"bag": "sift/20,surf/20", "model": "",
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

func TestParseBag(t *testing.T) {
	got, err := parseBag(" sift/20, surf , knn/80")
	want := []dataset.Member{{Benchmark: "sift", Batch: 20}, {Benchmark: "surf", Batch: 20}, {Benchmark: "knn", Batch: 80}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("parseBag = %v, %v; want %v", got, err, want)
	}
	if _, err := parseBag("sift/xx,surf/20"); err == nil || !strings.Contains(err.Error(), "bad batch") {
		t.Errorf("bad batch: error %v", err)
	}
}
