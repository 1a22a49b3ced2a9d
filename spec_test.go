package ccsvm_test

import (
	"errors"
	"testing"

	"ccsvm"
)

// TestBuildSpecTypedErrors pins the typed failures BuildSpec reports, one
// errors.Is sentinel per way a spec can fail to resolve.
func TestBuildSpecTypedErrors(t *testing.T) {
	p := ccsvm.DefaultParams()
	cases := []struct {
		name             string
		workload, preset string
		kind             ccsvm.SystemKind
		overrides        []string
		want             error
	}{
		{name: "unknown workload", workload: "nope", kind: ccsvm.SystemCCSVM, want: ccsvm.ErrUnknownWorkload},
		{name: "unknown preset", workload: "matmul", preset: "nope", want: ccsvm.ErrUnknownPreset},
		{name: "unknown system", workload: "matmul", kind: "vax", want: ccsvm.ErrUnknownSystem},
		{name: "unknown system with a preset", workload: "matmul", preset: "apu-base", kind: "vax", want: ccsvm.ErrUnknownSystem},
		{name: "empty system no preset", workload: "matmul", want: ccsvm.ErrUnknownSystem},
		{name: "unsupported pair", workload: "sparse", kind: ccsvm.SystemOpenCL, want: ccsvm.ErrUnsupportedPair},
		{name: "bad override path", workload: "matmul", kind: ccsvm.SystemCCSVM,
			overrides: []string{"ccsvm.NoSuchField=1"}, want: ccsvm.ErrUnknownPath},
		{name: "wrong machine override", workload: "matmul", kind: ccsvm.SystemCCSVM,
			overrides: []string{"apu.NumCPUs=2"}, want: ccsvm.ErrMachineMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ccsvm.BuildSpec(tc.workload, tc.kind, tc.preset, tc.overrides, p)
			if !errors.Is(err, tc.want) {
				t.Fatalf("BuildSpec error = %v, want errors.Is(_, %v)", err, tc.want)
			}
		})
	}

	// The happy path of preset defaulting: empty kind with a preset uses the
	// preset's default system.
	spec, err := ccsvm.BuildSpec("matmul", "", "apu-base", nil, p)
	if err != nil {
		t.Fatalf("BuildSpec with preset default kind: %v", err)
	}
	if spec.System.Kind != ccsvm.SystemCPU {
		t.Fatalf("preset default kind = %s, want cpu", spec.System.Kind)
	}
}
