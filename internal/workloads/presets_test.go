package workloads

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ccsvm/internal/core"
)

func TestBuiltinPresets(t *testing.T) {
	presets := Presets()
	if len(presets) < 6 {
		t.Fatalf("Presets() = %d presets, want at least 6", len(presets))
	}
	wantNames := []string{"apu-base", "apu-fast-driver", "ccsvm-base", "ccsvm-small-cache", "ccsvm-wide"}
	var names []string
	for _, p := range presets {
		names = append(names, p.Name)
		if p.Description == "" {
			t.Errorf("preset %q has no description", p.Name)
		}
		if len(p.Kinds()) == 0 {
			t.Errorf("preset %q reports no runnable kinds", p.Name)
		}
		// Every preset must build a valid system for each kind it claims.
		for _, kind := range p.Kinds() {
			sys, err := p.System(kind)
			if err != nil {
				t.Errorf("preset %q kind %s: %v", p.Name, kind, err)
				continue
			}
			if err := func() error {
				if sys.Kind == SystemCCSVM {
					return sys.CCSVM.Validate()
				}
				return sys.APU.Validate()
			}(); err != nil {
				t.Errorf("preset %q kind %s builds an invalid config: %v", p.Name, kind, err)
			}
		}
	}
	joined := strings.Join(names, " ")
	for _, w := range wantNames {
		if !strings.Contains(joined, w) {
			t.Errorf("built-in preset %q missing from %v", w, names)
		}
	}
}

// TestPresetRoundTrip registers a preset with a hand-built configuration and
// requires the registry to hand back a byte-identical copy.
func TestPresetRoundTrip(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.NumMTTOPs = 7
	cfg.MTTOPIssueWidth = 12
	cfg.Torus.Width = 5
	in := Preset{
		Name:        "test-roundtrip",
		Description: "round-trip probe",
		Machine:     MachineCCSVM,
		CCSVM:       cfg,
	}
	RegisterPreset(in)
	t.Cleanup(func() { unregisterPreset(in.Name) })
	out, ok := LookupPreset("test-roundtrip")
	if !ok {
		t.Fatal("registered preset not found")
	}
	// Compare the full formatted value: any drift in any field is a failure.
	if got, want := fmt.Sprintf("%#v", out), fmt.Sprintf("%#v", in); got != want {
		t.Errorf("preset did not round-trip byte-identically:\ngot  %s\nwant %s", got, want)
	}
	// Mutating the returned copy must not affect the registry.
	out.CCSVM.NumMTTOPs = 1
	again, _ := LookupPreset("test-roundtrip")
	if again.CCSVM.NumMTTOPs != 7 {
		t.Error("mutating a looked-up preset changed the registry")
	}
}

// unregisterPreset removes a preset a test registered, so the test can run
// again in the same process.
func unregisterPreset(name string) {
	presetRegistry.mu.Lock()
	defer presetRegistry.mu.Unlock()
	delete(presetRegistry.byName, name)
}

func TestPresetKindMismatch(t *testing.T) {
	p, ok := LookupPreset("ccsvm-base")
	if !ok {
		t.Fatal("ccsvm-base not registered")
	}
	if _, err := p.System(SystemOpenCL); !errors.Is(err, ErrMachineMismatch) {
		t.Errorf("ccsvm preset built an opencl system: err = %v, want ErrMachineMismatch", err)
	}
	a, ok := LookupPreset("apu-base")
	if !ok {
		t.Fatal("apu-base not registered")
	}
	if _, err := a.System(SystemCCSVM); !errors.Is(err, ErrMachineMismatch) {
		t.Errorf("apu preset built a ccsvm system: err = %v, want ErrMachineMismatch", err)
	}
	if a.DefaultKind() != SystemCPU {
		t.Errorf("apu-base default kind = %s, want cpu", a.DefaultKind())
	}
}

func TestRegisterPresetPanics(t *testing.T) {
	cases := map[string]Preset{
		"unnamed":         {Machine: MachineCCSVM},
		"unknown machine": {Name: "x", Machine: "quantum"},
		"duplicate":       {Name: "ccsvm-base", Machine: MachineCCSVM},
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterPreset(%+v) did not panic", p)
				}
			}()
			RegisterPreset(p)
		})
	}
}
