// Command mapc-experiments regenerates the paper's evaluation artifacts
// (Figures 1-12) on the simulated substrate and prints them as tables.
//
// Usage:
//
//	mapc-experiments                 # all figures
//	mapc-experiments -only figure5   # one figure
//	mapc-experiments -list           # list artifact IDs
package main

import (
	"flag"
	"fmt"
	"os"

	"mapc/internal/cli"
	"mapc/internal/experiments"
)

var (
	genFlags = cli.Bind(flag.CommandLine, cli.WithProfile)
	only     = flag.String("only", "", "regenerate a single artifact (e.g. figure5)")
	list     = flag.Bool("list", false, "list artifact IDs and exit")
)

func main() {
	flag.Parse()
	stopProf, err := genFlags.StartProfile()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "mapc-experiments: profiling:", err)
		}
	}()

	if *list {
		for _, g := range experiments.Generators() {
			fmt.Printf("%-10s %s\n", g.ID, g.Doc)
		}
		for _, g := range experiments.ExtraGenerators() {
			fmt.Printf("%-10s %s (extension)\n", g.ID, g.Doc)
		}
		return
	}

	cfg, err := genFlags.Config()
	if err != nil {
		fatal(err)
	}
	env := experiments.NewEnv(cfg)
	if *only != "" {
		t, err := experiments.Run(env, *only)
		if err != nil {
			fatal(err)
		}
		if err := t.Render(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	tables, err := experiments.All(env)
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		if err := t.Render(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mapc-experiments:", err)
	os.Exit(1)
}
