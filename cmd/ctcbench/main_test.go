package main

import (
	"testing"
	"time"

	"repro/internal/exp"
)

func fastCfg() Config {
	return exp.Config{QueriesPerPoint: 1, Seed: 3, BasicTimeout: time.Second, Quiet: true}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nonesuch", fastCfg(), ""); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunCaseStudyOnly(t *testing.T) {
	// fig11 is the only experiment cheap enough for a unit test (the others
	// generate the large shared networks; they are covered by the bench
	// suite and internal/exp tests).
	if err := run("fig11", fastCfg(), t.TempDir()); err != nil {
		t.Fatal(err)
	}
}
