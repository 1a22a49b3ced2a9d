// Package mttop models the massively-threaded throughput-oriented (MTTOP)
// cores of the CCSVM chip: GPU-like cores with many hardware thread contexts
// (128 per core in Table 2), an 8-wide issue limit, small private L1 caches,
// private TLBs and page-table walkers, and no ability to run the OS — page
// faults are raised to a CPU core through the MIFD.
//
// The paper's SIMT warps are modelled as fine-grained multithreading under a
// shared issue-bandwidth limit; this preserves the peak throughput of 8
// operations per cycle per core and the memory-system behaviour the
// evaluation measures.
//
//ccsvm:deterministic
package mttop
