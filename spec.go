package ccsvm

import (
	"errors"
	"fmt"
	"slices"
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
	// Diagnose a typo as an unknown kind, not as a preset's machine
	// mismatch.
	if kind != "" && !slices.Contains(Systems(), kind) {
		return RunSpec{}, fmt.Errorf("%w %q (have %v)", ErrUnknownSystem, kind, Systems())
	}
	var sys System
	var err error
	switch {
	case preset != "":
		pr, ok := LookupPreset(preset)
		if !ok {
			return RunSpec{}, fmt.Errorf("%w %q", ErrUnknownPreset, preset)
		}
		if kind == "" {
			kind = pr.DefaultKind()
		}
		sys, err = pr.System(kind)
	case kind == "":
		return RunSpec{}, fmt.Errorf("%w: empty (name a system or a preset)", ErrUnknownSystem)
	default:
		sys, err = NewSystem(kind)
	}
	if err != nil {
		return RunSpec{}, err
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
