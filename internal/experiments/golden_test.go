package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
	"time"

	"afrixp/internal/scenario"
)

// TestStreamAlertLogGolden pins the online side's outputs, which
// ResultDigest does not cover: the full streaming alert log (every
// field, floats by bit pattern) of one budgeted, faulted campaign, and
// that campaign's result digest, which covers which rounds the
// budget's CUSUM tap let through to the prober. A mistyped detector or
// budget constant moves one of the two.
func TestStreamAlertLogGolden(t *testing.T) {
	res, svc := runObservatoryCampaign(1, 4096, 1)
	alerts, _ := svc.AlertsSince(0, 0, nil)
	if len(alerts) == 0 {
		t.Fatal("no alerts; the golden log is vacuous")
	}
	h := sha256.New()
	for _, a := range alerts {
		fmt.Fprintf(h, "%d %s %d %s %s %x %x %x\n", a.Seq, a.Link, a.AtNs, a.From, a.To,
			math.Float64bits(a.ThresholdMs), math.Float64bits(a.MagnitudeMs), math.Float64bits(a.Evidence))
	}
	const (
		wantAlerts = "dfd32569d5465cea19fa39f88d1a5d2b14b5256c4bfa56b13d9fc543edec34fb"
		wantResult = "9f924aff636d3cd42f3507ed2c14e6bf346170c9e9b884249d29eb8979e5e83e"
	)
	if got := hex.EncodeToString(h.Sum(nil)); got != wantAlerts {
		t.Errorf("alert log (%d alerts) sha256 = %s, want %s", len(alerts), got, wantAlerts)
	}
	if got := ResultDigest(res); got != wantResult {
		t.Errorf("result digest = %s, want %s", got, wantResult)
	}
}

// TestAlertLatencyExact pins the window monitor's onset and cleared
// lags on the two paper case studies exactly, where TestAlertLatency
// only bounds them.
func TestAlertLatencyExact(t *testing.T) {
	rows, err := RunAlertLatency(scenario.Options{Seed: 17, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	const day = 24 * time.Hour
	want := []AlertLatency{
		{Case: "QCELL-NETPAGE", Alerted: true, OnsetLag: 4 * day, Cleared: true, ClearedLag: 8 * day},
		{Case: "GIXA-GHANATEL", Alerted: true, OnsetLag: 2 * day},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], want[i])
		}
	}
}
