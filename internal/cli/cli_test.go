package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mapc/internal/dataset"
	"mapc/internal/phasesum"
	"mapc/internal/simcache"
)

const allGroups = WithK | WithShares | WithRegistry | WithScheme | WithProfile

func parse(t *testing.T, groups Group, args ...string) (*Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Bind(fs, groups)
	return f, fs.Parse(args)
}

// TestBindRegistersGroups pins which flags each group adds, and their
// defaults.
func TestBindRegistersGroups(t *testing.T) {
	always := map[string]string{"workers": "0", "simcache-mb": "512", "fidelity": "exact"}
	for _, tc := range []struct {
		groups Group
		extra  map[string]string
	}{
		{0, nil},
		{WithK, map[string]string{"k": "2"}},
		{WithShares, map[string]string{"shares": ""}},
		{WithRegistry, map[string]string{"benchmarks": "", "batches": ""}},
		{WithScheme, map[string]string{"scheme": "full"}},
		{WithProfile, map[string]string{"cpuprofile": "", "memprofile": ""}},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		Bind(fs, tc.groups)
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		want := map[string]string{}
		for _, m := range []map[string]string{always, tc.extra} {
			for k, v := range m {
				want[k] = v
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("groups %b: flags %v, want %v", tc.groups, got, want)
		}
	}
}

// TestConfigDefaults checks that unset flags leave dataset.DefaultConfig
// alone apart from -workers (0 = NumCPU) and, with -k bound, K = 2.
func TestConfigDefaults(t *testing.T) {
	f, err := parse(t, allGroups)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := dataset.DefaultConfig()
	want.Workers, want.K, want.Fidelity = 0, 2, phasesum.Exact
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("default config\n  %+v\nwant\n  %+v", cfg, want)
	}
	if s, err := f.Scheme(); err != nil || s.Name != "full" {
		t.Errorf("default scheme %q, %v; want full", s.Name, err)
	}
	// Without -k the config keeps K = 0 (the pair default) for the
	// caller to set, as mapc-predict does from its bag.
	f, _ = parse(t, WithShares)
	if cfg, err := f.Config(); err != nil || cfg.K != 0 {
		t.Errorf("K without -k = %d, %v; want 0", cfg.K, err)
	}
}

func TestConfigParsesEveryFlag(t *testing.T) {
	f, err := parse(t, allGroups,
		"-workers", "3", "-simcache-mb", "64", "-fidelity", "fast", "-k", "3",
		"-shares", "0.7/0.2,0.1", "-benchmarks", "fast, hog,knn", "-batches", "20,40",
		"-scheme", "insmix", "-cpuprofile", "c.prof", "-memprofile", "m.prof")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 3 || cfg.SimCacheMB != 64 || cfg.Fidelity != phasesum.Fast || cfg.K != 3 {
		t.Errorf("scalars: workers %d simcache %d fidelity %q k %d", cfg.Workers, cfg.SimCacheMB, cfg.Fidelity, cfg.K)
	}
	if want := []float64{0.7, 0.2, 0.1}; !reflect.DeepEqual(cfg.Shares, want) {
		t.Errorf("shares %v, want %v", cfg.Shares, want)
	}
	if want := []string{"fast", "hog", "knn"}; !reflect.DeepEqual(cfg.Benchmarks, want) {
		t.Errorf("benchmarks %v, want %v", cfg.Benchmarks, want)
	}
	if want := []int{20, 40}; !reflect.DeepEqual(cfg.BatchSizes, want) {
		t.Errorf("batches %v, want %v", cfg.BatchSizes, want)
	}
	if s, err := f.Scheme(); err != nil || s.Name != "insmix" {
		t.Errorf("scheme %q, %v; want insmix", s.Name, err)
	}
	if f.cpuProfile != "c.prof" || f.memProfile != "m.prof" {
		t.Errorf("profiles %q %q", f.cpuProfile, f.memProfile)
	}
	if _, err := dataset.NewGenerator(cfg); err != nil {
		t.Errorf("bound config rejected by the generator: %v", err)
	}
}

// TestConfigErrorsNameTheFlag covers every error path Config and Scheme
// own; each message must start with the flag that caused it.
func TestConfigErrorsNameTheFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fidelity", "turbo"}, `-fidelity: phasesum: unknown fidelity "turbo"`},
		{[]string{"-simcache-mb", "8796093022208"}, "-simcache-mb 8796093022208 outside [0, 8796093022207]"},
		{[]string{"-simcache-mb", "-1"}, "-simcache-mb -1 outside"},
		{[]string{"-k", "3", "-shares", "0.5/0.5"}, "-shares: 2 weights for -k 3"},
		{[]string{"-shares", "0.5/0.3/0.2"}, "-shares: 3 weights for -k 2"},
		{[]string{"-shares", "x/1"}, "-shares: dataset: share weight"},
		{[]string{"-batches", "0"}, "-batches: dataset: batch list \"0\": vision: non-positive batch 0"},
		{[]string{"-batches", "20,x"}, "-batches: dataset: batch size"},
		{[]string{"-benchmarks", "fast,,hog"}, "-benchmarks: dataset: benchmark list"},
		{[]string{"-scheme", "bogus"}, `-scheme: unknown scheme "bogus"`},
	} {
		f, err := parse(t, allGroups, tc.args...)
		if err != nil {
			t.Fatalf("%v: parse: %v", tc.args, err)
		}
		_, err = f.Config()
		if err == nil {
			_, err = f.Scheme()
		}
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want prefix %q", tc.args, err, tc.want)
		}
	}
	// Without -k, share counts are left to dataset.NewGenerator, which
	// sees the caller's bag size.
	f, _ := parse(t, WithShares, "-shares", "0.5/0.3/0.2")
	if _, err := f.Config(); err != nil {
		t.Errorf("3 shares without -k: %v", err)
	}
}

// TestUnboundFlagsAreUnknown checks that a group left out is not parsed.
func TestUnboundFlagsAreUnknown(t *testing.T) {
	for _, arg := range []string{"-k", "-shares", "-benchmarks", "-batches", "-scheme", "-cpuprofile", "-memprofile"} {
		if _, err := parse(t, 0, arg, "x"); err == nil {
			t.Errorf("%s accepted without its group", arg)
		}
	}
}

func TestCheckMB(t *testing.T) {
	for _, tc := range []struct {
		mb int
		ok bool
	}{{0, true}, {512, true}, {simcache.MaxMB, true}, {simcache.MaxMB + 1, false}, {-1, false}} {
		err := CheckMB("feature-cache-mb", tc.mb)
		if (err == nil) != tc.ok {
			t.Errorf("CheckMB(%d) = %v, want ok=%t", tc.mb, err, tc.ok)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "-feature-cache-mb ") {
			t.Errorf("CheckMB(%d) error %q does not name the flag", tc.mb, err)
		}
	}
}

func TestStartProfile(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	f, _ := parse(t, WithProfile, "-cpuprofile", cpu, "-memprofile", mem)
	stop, err := f.StartProfile()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s not written: %v", p, err)
		}
	}
}
