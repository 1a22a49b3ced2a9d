package workloads

import (
	"errors"
	"testing"

	"ccsvm/internal/sim"
)

func ccsvmSys(t *testing.T) System {
	t.Helper()
	sys, err := NewSystem(SystemCCSVM)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func openclSys(t *testing.T) System {
	t.Helper()
	sys, err := NewSystem(SystemOpenCL)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSetAssignsTypedFields(t *testing.T) {
	sys := ccsvmSys(t)
	cases := []struct {
		path, value string
		got         func() any
		want        any
	}{
		{"ccsvm.MTTOPIssueWidth", "16", func() any { return sys.CCSVM.MTTOPIssueWidth }, 16},
		{"ccsvm.CPUClockHz", "3.2e9", func() any { return sys.CCSVM.CPUClockHz }, 3.2e9},
		{"ccsvm.DRAM.Latency", "50ns", func() any { return sys.CCSVM.DRAM.Latency }, 50 * sim.Nanosecond},
		// Durations parse at picosecond resolution: sub-nanosecond values
		// (Table 2's cache hit latencies live there) must not truncate to 0.
		{"ccsvm.CPUL1Hit", "0.5ns", func() any { return sys.CCSVM.CPUL1Hit }, 500 * sim.Picosecond},
		{"ccsvm.MTTOPL1Hit", "250ps", func() any { return sys.CCSVM.MTTOPL1Hit }, 250 * sim.Picosecond},
		{"ccsvm.L2Latency", "1.5us", func() any { return sys.CCSVM.L2Latency }, 1500 * sim.Nanosecond},
		{"ccsvm.Torus.Width", "6", func() any { return sys.CCSVM.Torus.Width }, 6},
		// Field matching is case-insensitive for CLI convenience.
		{"ccsvm.nummttops", "8", func() any { return sys.CCSVM.NumMTTOPs }, 8},
	}
	for _, c := range cases {
		if err := Set(&sys, c.path, c.value); err != nil {
			t.Fatalf("Set(%s=%s): %v", c.path, c.value, err)
		}
		if got := c.got(); got != c.want {
			t.Errorf("Set(%s=%s): field = %v, want %v", c.path, c.value, got, c.want)
		}
	}

	apuSys := openclSys(t)
	if err := Set(&apuSys, "apu.OpenCL.KernelLaunch", "5us"); err != nil {
		t.Fatal(err)
	}
	if apuSys.APU.OpenCL.KernelLaunch != 5*sim.Microsecond {
		t.Errorf("KernelLaunch = %v, want 5us", apuSys.APU.OpenCL.KernelLaunch)
	}
	if err := Set(&apuSys, "apu.GPULanes", "128"); err != nil {
		t.Fatal(err)
	}
	if apuSys.APU.GPULanes != 128 {
		t.Errorf("GPULanes = %d, want 128", apuSys.APU.GPULanes)
	}
}

func TestSetTypedErrors(t *testing.T) {
	cases := []struct {
		name, path, value string
		onAPU             bool
		want              error
	}{
		{"unknown root", "gpu.Lanes", "4", false, ErrUnknownPath},
		{"unknown field", "ccsvm.NumGPUs", "4", false, ErrUnknownPath},
		{"unknown nested field", "ccsvm.DRAM.Banks", "4", false, ErrUnknownPath},
		{"no dot", "ccsvm", "4", false, ErrUnknownPath},
		{"path into scalar", "ccsvm.NumCPUs.Sub", "4", false, ErrUnknownPath},
		{"path stops at struct", "ccsvm.DRAM", "4", false, ErrBadValue},
		{"wrong type int", "ccsvm.NumCPUs", "many", false, ErrBadValue},
		{"wrong type float", "ccsvm.CPUClockHz", "fast", false, ErrBadValue},
		{"duration without unit", "ccsvm.DRAM.Latency", "50", false, ErrBadValue},
		{"out of range zero", "ccsvm.NumCPUs", "0", false, ErrOutOfRange},
		{"out of range negative", "ccsvm.NumMTTOPs", "-3", false, ErrOutOfRange},
		{"out of range vliw", "apu.GPUVLIWOpsPerInstr", "9", true, ErrOutOfRange},
		// The APU snoop filter tracks holders in one uint64 per line.
		{"out of range apu cpus", "apu.NumCPUs", "65", true, ErrOutOfRange},
		// The directory's sharer sets have one bit per L1: 4 CPUs + 61 MTTOPs
		// is 65.
		{"out of range l1 count", "ccsvm.NumMTTOPs", "61", false, ErrOutOfRange},
		// A negative latency would schedule engine events in the past.
		{"out of range negative latency", "ccsvm.DRAM.Latency", "-100ns", false, ErrOutOfRange},
		{"out of range negative overhead", "apu.OpenCL.KernelLaunch", "-1us", true, ErrOutOfRange},
		{"apu path on ccsvm system", "apu.GPULanes", "32", false, ErrMachineMismatch},
		{"ccsvm path on apu system", "ccsvm.NumCPUs", "2", true, ErrMachineMismatch},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys := ccsvmSys(t)
			if c.onAPU {
				sys = openclSys(t)
			}
			before := sys
			err := Set(&sys, c.path, c.value)
			if !errors.Is(err, c.want) {
				t.Fatalf("Set(%s=%s): err = %v, want %v", c.path, c.value, err, c.want)
			}
			var oe *OverrideError
			if !errors.As(err, &oe) || oe.Path != c.path {
				t.Fatalf("Set(%s=%s): error %v does not carry the path", c.path, c.value, err)
			}
			// A failed override must not leave a half-modified system behind.
			if sys.CCSVM != before.CCSVM || sys.APU != before.APU {
				t.Errorf("Set(%s=%s) modified the system despite failing", c.path, c.value)
			}
		})
	}
}

// TestSetRejectsUnbuildableMachines: a cache with no whole set of 64-byte
// lines (too small for one line, or a line count its associativity does
// not divide), a CCSVM DRAM with no page frame above the kernel's reserved
// ones and an APU DRAM that ends at or below the heap base would make every
// run panic, so Set rejects each as out of range. Values just inside the
// bounds resolve.
func TestSetRejectsUnbuildableMachines(t *testing.T) {
	cases := []struct {
		path, value string
		onAPU, ok   bool
	}{
		{"ccsvm.CPUL1.SizeBytes", "32", false, false},
		{"ccsvm.CPUL1.SizeBytes", "1", false, false},
		{"ccsvm.CPUL1.Assoc", "3", false, false},
		{"ccsvm.MTTOPL1.SizeBytes", "96", false, false},
		{"ccsvm.MTTOPL1.Assoc", "5", false, false},
		{"ccsvm.L2BankBytes", "2", false, false},
		{"ccsvm.L2Assoc", "3", false, false},
		{"ccsvm.DRAM.SizeBytes", "5", false, false},
		{"ccsvm.DRAM.SizeBytes", "69631", false, false},
		{"ccsvm.DRAM.SizeBytes", "69632", false, true},
		{"ccsvm.CPUL1.SizeBytes", "256", false, true},
		{"apu.CPUCaches.L1.SizeBytes", "2", true, false},
		{"apu.CPUCaches.L1.Assoc", "3", true, false},
		{"apu.CPUCaches.L2.SizeBytes", "5", true, false},
		{"apu.CPUCaches.L2.Assoc", "5", true, false},
		{"apu.GPUMem.ReadCacheBytes", "3", true, false},
		{"apu.GPUMem.ReadCacheAssoc", "3", true, false},
		{"apu.DRAM.SizeBytes", "1", true, false},
		{"apu.DRAM.SizeBytes", "1073741824", true, false},
		{"apu.DRAM.SizeBytes", "1073741825", true, true},
		{"apu.GPUMem.ReadCacheAssoc", "2", true, true},
	}
	for _, c := range cases {
		sys := ccsvmSys(t)
		if c.onAPU {
			sys = openclSys(t)
		}
		err := Set(&sys, c.path, c.value)
		if c.ok && err != nil {
			t.Errorf("Set(%s=%s) = %v, want it accepted", c.path, c.value, err)
		}
		if !c.ok && !errors.Is(err, ErrOutOfRange) {
			t.Errorf("Set(%s=%s) = %v, want ErrOutOfRange", c.path, c.value, err)
		}
	}
}

// TestTorusDimensionOverrides covers the torus-geometry rules: one explicit
// dimension reshapes the grid (the other is derived at machine build), while
// an explicit grid too small for the chip's nodes is a typed error instead
// of a placement panic inside NewMachine.
func TestTorusDimensionOverrides(t *testing.T) {
	sys := ccsvmSys(t)
	if err := Set(&sys, "ccsvm.Torus.Height", "2"); err != nil {
		t.Fatalf("single-dimension override rejected: %v", err)
	}
	// 2x2 = 4 slots cannot hold the Table 2 chip's 18 nodes.
	if err := Set(&sys, "ccsvm.Torus.Width", "2"); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("undersized torus: err = %v, want ErrOutOfRange", err)
	}
	if sys.CCSVM.Torus.Width != 0 {
		t.Errorf("failed override left Torus.Width = %d, want rollback to 0", sys.CCSVM.Torus.Width)
	}
	// A grid that fits is accepted.
	if err := Set(&sys, "ccsvm.Torus.Width", "9"); err != nil {
		t.Errorf("9x2 torus for 18 nodes rejected: %v", err)
	}
}

func TestApplyAssignments(t *testing.T) {
	sys := ccsvmSys(t)
	err := Apply(&sys, []string{"ccsvm.NumMTTOPs=6", "ccsvm.L2BankBytes=524288"})
	if err != nil {
		t.Fatal(err)
	}
	if sys.CCSVM.NumMTTOPs != 6 || sys.CCSVM.L2BankBytes != 524288 {
		t.Errorf("Apply left NumMTTOPs=%d L2BankBytes=%d", sys.CCSVM.NumMTTOPs, sys.CCSVM.L2BankBytes)
	}
	if err := Apply(&sys, []string{"ccsvm.NumMTTOPs"}); !errors.Is(err, ErrBadValue) {
		t.Errorf("Apply without '=': err = %v, want ErrBadValue", err)
	}
	if err := Apply(&sys, []string{"ccsvm.Nope=1"}); !errors.Is(err, ErrUnknownPath) {
		t.Errorf("Apply with unknown path: err = %v, want ErrUnknownPath", err)
	}
}

func TestOverridePathsEnumeration(t *testing.T) {
	ccsvmPaths := OverridePaths(MachineCCSVM)
	apuPaths := OverridePaths(MachineAPU)
	if len(ccsvmPaths) == 0 || len(apuPaths) == 0 {
		t.Fatalf("OverridePaths returned %d ccsvm and %d apu paths", len(ccsvmPaths), len(apuPaths))
	}
	wantCCSVM := []string{"ccsvm.NumMTTOPs int", "ccsvm.DRAM.Latency duration", "ccsvm.Torus.Width int"}
	for _, w := range wantCCSVM {
		if !containsString(ccsvmPaths, w) {
			t.Errorf("OverridePaths(ccsvm) missing %q", w)
		}
	}
	wantAPU := []string{"apu.GPULanes int", "apu.OpenCL.KernelLaunch duration"}
	for _, w := range wantAPU {
		if !containsString(apuPaths, w) {
			t.Errorf("OverridePaths(apu) missing %q", w)
		}
	}
	if OverridePaths(MachineKind("riscv")) != nil {
		t.Error("OverridePaths of unknown machine should be nil")
	}
}

func containsString(list []string, want string) bool {
	for _, s := range list {
		if s == want {
			return true
		}
	}
	return false
}
