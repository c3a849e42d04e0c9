package runner

import (
	"testing"

	"repro/internal/config"
	"repro/internal/digest"
)

// divergeBase is the common half of every bisection pair: the stacked
// four-layer machine, short windows.
func divergeBase() Job {
	cfg := config.Default(config.CMPDNUCA3D)
	cfg.Layers = 4
	cfg.StackCPUs = true
	return Job{
		Config:        cfg,
		Benchmark:     "mgrid",
		WarmCycles:    2_000,
		MeasureCycles: 8_000,
		Seed:          1,
	}
}

// TestDivergeEqual: a job against its chunked self (a Progress hook makes
// the runner advance in bounded Run calls) must come back equal with
// matching final digests — the bisector attesting the chunking contract
// rather than finding phantom divergences.
func TestDivergeEqual(t *testing.T) {
	a := divergeBase()
	b := a
	b.Progress = func(float64) {}
	rep, err := Diverge(a, b, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equal {
		t.Fatalf("single-call vs chunked run reported divergence at cycle %d in %s", rep.Cycle, rep.Lane)
	}
	if rep.DigestA != rep.DigestB || rep.DigestA == "" {
		t.Errorf("equal runs with different final digests: %s vs %s", rep.DigestA, rep.DigestB)
	}
	if rep.Records != 8 {
		t.Errorf("compared %d snapshots, want 8 (cycles 2000..9000 every 1000)", rep.Records)
	}
}

// TestDivergeSeedPerturbation: a perturbed seed makes the workloads
// differ from the first warm cycle on, so the bisector must report a
// divergence, refine it to an exact cycle no later than the first
// coarse snapshot, and name a valid lane.
func TestDivergeSeedPerturbation(t *testing.T) {
	a := divergeBase()
	b := a
	b.Seed = 2
	rep, err := Diverge(a, b, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Equal {
		t.Fatal("seed-perturbed pair reported equal")
	}
	if rep.DigestA == rep.DigestB {
		t.Errorf("diverged runs share final digest %s", rep.DigestA)
	}
	if !rep.Refined {
		t.Error("refinement pass did not run")
	}
	if rep.Cycle > rep.CoarseCycle {
		t.Errorf("refined cycle %d after coarse hit %d", rep.Cycle, rep.CoarseCycle)
	}
	// The measurement window steps cycles [warm, warm+measure), so the
	// first snapshot digests the warm boundary cycle itself — and a seed
	// perturbation has already diverged by then.
	if rep.CoarseCycle != a.WarmCycles {
		t.Errorf("coarse divergence at cycle %d, want the first snapshot (%d)",
			rep.CoarseCycle, a.WarmCycles)
	}
	valid := false
	for l := 0; l < digest.NumLanes; l++ {
		if rep.Lane == digest.Lane(l).String() {
			valid = true
		}
	}
	if !valid {
		t.Errorf("divergence lane %q is not a known subsystem", rep.Lane)
	}
}

// TestDivergeForcesWindows: mismatched windows on the variant are
// overridden so the streams align snapshot-for-snapshot.
func TestDivergeForcesWindows(t *testing.T) {
	a := divergeBase()
	b := a
	b.WarmCycles, b.MeasureCycles = 1, 100 // would misalign if honored
	rep, err := Diverge(a, b, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equal || rep.Records != 8 {
		t.Fatalf("window-forced pair: equal=%v records=%d, want equal over 8 snapshots",
			rep.Equal, rep.Records)
	}
}
