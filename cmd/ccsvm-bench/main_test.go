package main

import (
	"strings"
	"testing"
)

func TestCompareSkipsOnlyWallClockTierOnOtherHost(t *testing.T) {
	ref := record{
		series:       series{Name: "fig5_matmul_ccsvm"},
		AllocsPerOp:  1000,
		SimTimePs:    40047140,
		SimEvents:    143596,
		TraceHash:    "61500d19581582d7",
		EventsPerSec: 2.5e6,
	}
	doc := func(gomaxprocs int, cpu string, edit func(*record)) baseline {
		r := ref
		if edit != nil {
			edit(&r)
		}
		return baseline{GOMAXPROCS: gomaxprocs, CPU: cpu, Series: []record{r}}
	}
	base := doc(1, "cpu A", nil)
	slow := func(r *record) { r.EventsPerSec = ref.EventsPerSec / 10 }

	cases := []struct {
		name     string
		cur      baseline
		pass     bool
		skipWall bool
	}{
		{"same host, same numbers", doc(1, "cpu A", nil), true, false},
		{"same host, throughput drop", doc(1, "cpu A", slow), false, false},
		{"other gomaxprocs, throughput drop", doc(2, "cpu A", slow), true, true},
		{"other cpu, throughput drop", doc(1, "cpu B", slow), true, true},
		{"other host, sim_time drift", doc(2, "cpu B", func(r *record) { r.SimTimePs++ }), false, true},
		{"other host, sim_events drift", doc(2, "cpu B", func(r *record) { r.SimEvents++ }), false, true},
		{"other host, trace_hash drift", doc(2, "cpu B", func(r *record) { r.TraceHash = "0" }), false, true},
		{"other host, allocation growth", doc(2, "cpu B", func(r *record) { r.AllocsPerOp *= 2 }), false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if got := compare(&out, base, tc.cur, 0.30, 0.05); got != tc.pass {
				t.Errorf("compare = %v, want %v; report:\n%s", got, tc.pass, out.String())
			}
			if got := strings.Contains(out.String(), "skipped: host differs"); got != tc.skipWall {
				t.Errorf("report mentions the host skip = %v, want %v; report:\n%s", got, tc.skipWall, out.String())
			}
		})
	}
}
