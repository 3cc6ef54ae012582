// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-exp all|NAME] [-scale tiny|small|full] [-seed N] [-format text|json]
//
// NAME is one experiment of internal/experiments' table (-h lists them);
// "all" runs every one in table order. "suite" renders Figures 11–17
// from one valley-benchmark sweep. With -format json, each experiment
// emits a machine-readable envelope ({"experiment","options","data"})
// instead of rendered text — one JSON value for a single experiment, a
// JSON array for -exp all — so services and scripts can consume sweep
// results directly.
//
// The -trace and -window flags are gone: entropymap -trace profiles a
// local trace file (CSV or VTRC, optionally after -scheme), and
// valleyd's /v1/profile answers with the profile as JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"valleymap"
	"valleymap/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, "+strings.Join(experiments.Names(), ", "))
	scale := flag.String("scale", "small", "trace scale: tiny, small, full")
	seed := flag.Int64("seed", 1, "BIM seed (1..3 are the paper's BIM-1..BIM-3)")
	format := flag.String("format", "text", "output format: text, json")
	flag.Parse()

	sc, err := valleymap.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opt := valleymap.ExperimentOptions{Scale: sc, Seed: *seed}

	names := []string{strings.ToLower(*exp)}
	if names[0] == "all" {
		names = experiments.Names()
	}

	switch strings.ToLower(*format) {
	case "text":
		for _, n := range names {
			out, err := experiments.Run(n, opt)
			if err != nil {
				unknownExperiment(n)
			}
			out.Render(os.Stdout)
			if len(names) > 1 {
				fmt.Println()
			}
		}
	case "json":
		renderJSON(names, opt)
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q (want text or json)\n", *format)
		os.Exit(2)
	}
}

func unknownExperiment(name string) {
	fmt.Fprintf(os.Stderr, "unknown experiment %q (want one of all %s)\n", name, strings.Join(experiments.Names(), " "))
	os.Exit(2)
}

func renderJSON(names []string, opt valleymap.ExperimentOptions) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	envs := make([]experiments.Envelope, 0, len(names))
	for _, n := range names {
		env, err := experiments.JSONPayload(n, opt)
		if err != nil {
			unknownExperiment(n)
		}
		envs = append(envs, env)
	}
	var payload any = envs
	if len(envs) == 1 {
		payload = envs[0]
	}
	if err := enc.Encode(payload); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
