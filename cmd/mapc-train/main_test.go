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
		"workers": "0", "simcache-mb": "512", "fidelity": "exact", "k": "2", "scheme": "full",
		"dump-tree": "false", "protocol": "own", "max-depth": "0", "o": "",
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
