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
		"workers": "0", "simcache-mb": "512", "fidelity": "exact", "cpuprofile": "", "memprofile": "",
		"only": "", "list": "false",
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
