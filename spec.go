package ccsvm

import (
	"errors"
	"fmt"
)

// Typed failures of spec resolution (BuildSpec, and Runner.Run for an
// unknown workload), matched with errors.Is.
var (
	// ErrUnknownWorkload reports a workload name absent from the registry.
	ErrUnknownWorkload = errors.New("unknown workload")
	// ErrUnknownPreset reports a preset name absent from the registry.
	ErrUnknownPreset = errors.New("unknown preset")
	// ErrUnknownSystem reports a system kind that names no machine model.
	ErrUnknownSystem = errors.New("unknown system kind")
)

// BuildSpec resolves (workload, system kind, preset, overrides, params) into
// a runnable RunSpec, recording the preset and overrides on the spec as
// provenance. An empty preset means the kind's Table 2 default
// configuration; an empty kind with a preset means the preset's default
// system. Failures are typed: ErrUnknownWorkload, ErrUnknownPreset,
// ErrUnknownSystem, ErrUnsupportedPair, or an OverrideError.
func BuildSpec(workload string, kind SystemKind, preset string, overrides []string, p Params) (RunSpec, error) {
	w, ok := Lookup(workload)
	if !ok {
		return RunSpec{}, fmt.Errorf("%w %q", ErrUnknownWorkload, workload)
	}
	var sys System
	if preset != "" {
		pr, ok := LookupPreset(preset)
		if !ok {
			return RunSpec{}, fmt.Errorf("%w %q", ErrUnknownPreset, preset)
		}
		if kind == "" {
			kind = pr.DefaultKind()
		}
		var err error
		if sys, err = pr.System(kind); err != nil {
			return RunSpec{}, err
		}
	} else {
		if kind == "" {
			return RunSpec{}, fmt.Errorf("%w: empty (name a system or a preset)", ErrUnknownSystem)
		}
		var err error
		if sys, err = NewSystem(kind); err != nil {
			return RunSpec{}, fmt.Errorf("%w %q", ErrUnknownSystem, kind)
		}
	}
	if !w.Supports(kind) {
		return RunSpec{}, fmt.Errorf("%s on %s: %w (supported: %v)",
			workload, kind, ErrUnsupportedPair, w.SystemKinds())
	}
	if err := ApplyOverrides(&sys, overrides); err != nil {
		return RunSpec{}, err
	}
	return RunSpec{
		Workload:  workload,
		System:    sys,
		Params:    p,
		Preset:    preset,
		Overrides: overrides,
	}, nil
}
