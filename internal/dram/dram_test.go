package dram

import (
	"testing"

	"ccsvm/internal/sim"
)

func TestControllerCountsAndLatency(t *testing.T) {
	engine := sim.NewEngine()
	c := NewController(engine, Config{Latency: 100 * sim.Nanosecond, Bandwidth: 0, SizeBytes: 1 << 30})
	var readAt, writeAt sim.Time
	c.Read(0x40, func() { readAt = engine.Now() })
	c.Write(0x80, func() { writeAt = engine.Now() })
	engine.Run()
	if readAt != sim.Time(100*sim.Nanosecond) {
		t.Fatalf("read completed at %v, want 100ns", readAt)
	}
	if writeAt != sim.Time(100*sim.Nanosecond) {
		t.Fatalf("write completed at %v (no bandwidth limit => same latency)", writeAt)
	}
	if c.Reads() != 1 || c.Writes() != 1 || c.Accesses() != 2 {
		t.Fatalf("counters wrong: %d reads, %d writes", c.Reads(), c.Writes())
	}
}

func TestControllerBandwidthSerializes(t *testing.T) {
	engine := sim.NewEngine()
	// 64 bytes at 1 GB/s = 64 ns serialization per line.
	c := NewController(engine, Config{Latency: 10 * sim.Nanosecond, Bandwidth: 1e9, SizeBytes: 1 << 30})
	var first, second sim.Time
	c.Read(0x40, func() { first = engine.Now() })
	c.Read(0x80, func() { second = engine.Now() })
	engine.Run()
	if second-first < sim.Time(60*sim.Nanosecond) {
		t.Fatalf("second access should be delayed by serialization: %v vs %v", first, second)
	}
}

func TestBulkTransfersCountLines(t *testing.T) {
	engine := sim.NewEngine()
	c := NewController(engine, DefaultAPUConfig())
	c.ReadBulk(1000, nil) // 16 lines
	c.WriteBulk(100, nil) // 2 lines
	if c.Reads() != 16 || c.Writes() != 2 {
		t.Fatalf("bulk accounting wrong: %d reads, %d writes", c.Reads(), c.Writes())
	}
	engine.Run()
}

func TestDefaultConfigs(t *testing.T) {
	ccsvm := DefaultCCSVMConfig()
	apu := DefaultAPUConfig()
	if ccsvm.Latency != 100*sim.Nanosecond || apu.Latency != 72*sim.Nanosecond {
		t.Fatal("Table 2 DRAM latencies wrong")
	}
	if ccsvm.SizeBytes != 2<<30 || apu.SizeBytes != 8<<30 {
		t.Fatal("Table 2 DRAM sizes wrong")
	}
}
