package afrixp

import (
	"flag"
	"reflect"
	"runtime"
	"testing"
	"time"

	"afrixp/internal/budget"
	"afrixp/internal/faults"
	"afrixp/internal/simclock"
)

// TestEngineConfigTranslation pins the one CampaignConfig → engine
// translation: the campaign interval, the world builder, the fault and
// budget plans, and the resume directory.
func TestEngineConfigTranslation(t *testing.T) {
	day := 24 * time.Hour
	at := func(d int) simclock.Time { return simclock.Time(0).Add(time.Duration(d) * day) }
	full := simclock.Interval{Start: 0, End: simclock.LatencyEnd}

	for _, tc := range []struct {
		name string
		cfg  CampaignConfig
		want simclock.Interval
	}{
		{"days", CampaignConfig{Days: 4}, simclock.Interval{Start: 0, End: at(4)}},
		{"days+offset", CampaignConfig{Days: 4, StartOffsetDays: 149}, simclock.Interval{Start: at(149), End: at(153)}},
		{"clamped", CampaignConfig{Days: 30, StartOffsetDays: 390}, simclock.Interval{Start: at(390), End: simclock.LatencyEnd}},
		{"full period", CampaignConfig{}, full},
		{"offset to end", CampaignConfig{StartOffsetDays: 14}, simclock.Interval{Start: at(14), End: simclock.LatencyEnd}},
	} {
		if got := tc.cfg.engineConfig().Campaign; got != tc.want {
			t.Errorf("%s: Campaign = %v, want %v", tc.name, got, tc.want)
		}
	}

	for _, scale := range []float64{0, 0.5, 1} {
		if (CampaignConfig{Scale: scale}).engineConfig().BuildWorld != nil {
			t.Errorf("Scale %g: BuildWorld set; the authored paper world must be used", scale)
		}
	}
	if (CampaignConfig{Scale: 10, GenSeed: 3}).engineConfig().BuildWorld == nil {
		t.Error("Scale 10: BuildWorld not set; the generated world must be used")
	}

	if ecfg := (CampaignConfig{FaultSeed: 9}).engineConfig(); ecfg.Faults != nil {
		t.Errorf("Faults off: fault plan %+v installed", *ecfg.Faults)
	}
	if ecfg := (CampaignConfig{Faults: true, FaultSeed: 9}).engineConfig(); ecfg.Faults == nil || *ecfg.Faults != (faults.Config{Seed: 9}) {
		t.Errorf("Faults on: fault plan %v, want seed 9", ecfg.Faults)
	}

	for _, frac := range []float64{0, -1} {
		if ecfg := (CampaignConfig{Budget: frac, BudgetSeed: 4}).engineConfig(); ecfg.Budget != nil {
			t.Errorf("Budget %g: scheduler %+v installed", frac, *ecfg.Budget)
		}
	}
	if ecfg := (CampaignConfig{Budget: 0.5, BudgetSeed: 4}).engineConfig(); ecfg.Budget == nil ||
		*ecfg.Budget != (budget.Config{Fraction: 0.5, Seed: 4}) {
		t.Errorf("Budget 0.5: scheduler %v, want fraction 0.5 seed 4", ecfg.Budget)
	}

	if ecfg := (CampaignConfig{CheckpointDir: "d"}).engineConfig(); ecfg.ResumeFrom != "" || ecfg.CheckpointDir != "d" {
		t.Errorf("no Resume: CheckpointDir %q ResumeFrom %q", ecfg.CheckpointDir, ecfg.ResumeFrom)
	}
	if ecfg := (CampaignConfig{CheckpointDir: "d", Resume: true}).engineConfig(); ecfg.ResumeFrom != "d" {
		t.Errorf("Resume: ResumeFrom %q, want d", ecfg.ResumeFrom)
	}
}

// TestRegisterFlags parses the CI checkpoint-restart smoke's repro
// arguments through the shared campaign flag set.
func TestRegisterFlags(t *testing.T) {
	var defaults CampaignConfig
	defaults.RegisterFlags(flag.NewFlagSet("defaults", flag.ContinueOnError))
	if want := (CampaignConfig{Scale: 1, Workers: runtime.GOMAXPROCS(0)}); !reflect.DeepEqual(defaults, want) {
		t.Errorf("flag defaults %+v, want %+v", defaults, want)
	}

	var cfg CampaignConfig
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	cfg.RegisterFlags(fs)
	fs.Bool("quiet", false, "")
	fs.Bool("result-sha", false, "")
	args := []string{"-days", "4", "-scale", "0.05", "-no-loss", "-faults", "-budget", "0.5",
		"-budget-seed", "1", "-quiet", "-result-sha",
		"-checkpoint-dir", "d", "-checkpoint-every", "12h", "-resume"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := CampaignConfig{
		Days: 4, Scale: 0.05, DisableLoss: true, Faults: true, Budget: 0.5, BudgetSeed: 1,
		Workers:       runtime.GOMAXPROCS(0),
		CheckpointDir: "d", CheckpointEvery: 12 * time.Hour, Resume: true,
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("parsed config %+v, want %+v", cfg, want)
	}
}
