package ccsvm

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"

	"ccsvm/internal/simarena"
	"ccsvm/internal/stats"
)

// RunSpec names one simulation to run: a registered workload, the system to
// run it on, and its parameters. Tag is an optional caller label carried
// through to the RunResult and the sinks. Preset and Overrides record how
// the System was derived (BuildSpec fills them); they are provenance for
// the sinks, not inputs to the run.
type RunSpec struct {
	Workload string
	System   System
	Params   Params
	Tag      string
	// Preset is the named machine preset the System was built from, if any.
	Preset string
	// Overrides are the dotted-path "path=value" assignments applied to the
	// System after construction, in application order.
	Overrides []string
}

// String formats the spec as "workload/system(n=.. ...)", including every
// parameter that distinguishes sweep rows — problem size and seed, the
// optional density and init flags, and the Tag carrying preset/override
// identity — so error messages from Runner.Run identify the exact failing
// run even when two rows differ only by machine variant.
func (s RunSpec) String() string {
	out := fmt.Sprintf("%s/%s(n=%d seed=%d", s.Workload, s.System.Kind, s.Params.N, s.Params.Seed)
	if s.Params.Density != 0 {
		out += fmt.Sprintf(" d=%v", s.Params.Density)
	}
	if s.Params.IncludeInit {
		out += " +init"
	}
	if s.Preset != "" {
		out += fmt.Sprintf(" preset=%s", s.Preset)
	}
	for _, o := range s.Overrides {
		out += " " + o
	}
	if s.Tag != "" {
		out += fmt.Sprintf(" tag=%q", s.Tag)
	}
	return out + ")"
}

// ErrSimulationPanic is the error of a run that panicked: Runner.Run
// recovers the panic on the run's worker, so the sweep and its other runs go
// on. errors.As finds it in a RunResult's Err and in Run's joined error.
type ErrSimulationPanic struct {
	Spec RunSpec
	// Value is the value the run panicked with; Stack is the worker's stack
	// where the panic was recovered.
	Value any
	Stack []byte
}

// Error implements error.
func (e *ErrSimulationPanic) Error() string {
	return fmt.Sprintf("simulation panicked: %v", e.Value)
}

// RunResult is the outcome of one RunSpec: the spec itself, its index in the
// sweep, and either a Result or an error (lookup failure, unsupported pair,
// a simulation error, or an *ErrSimulationPanic).
type RunResult struct {
	Spec   RunSpec
	Index  int
	Result Result
	Err    error
}

// Sink consumes a stream of RunResults. Runner.Run delivers results to every
// sink in spec order regardless of the degree of parallelism, then calls
// Close once the sweep is complete.
type Sink interface {
	Emit(RunResult) error
	Close() error
}

// Runner fans a list of RunSpecs out across a bounded worker pool. Each
// simulation is an independent single-threaded discrete-event engine, so a
// sweep parallelizes perfectly and the per-run results are bit-identical to a
// sequential run.
//
// Each worker draws a machine-part Arena from the Runner for the length of a
// Run call: the engine, physical memory, tag arrays, SWMR checker,
// directory tables, L1 controllers, MMUs, GPU memory path, message
// populations, software threads, their coroutines and MTTOP contexts of a
// finished run are recycled into the worker's next machine, so a long sweep
// stops paying construction and GC cost per run. Workers hand their arenas
// back to the Runner when the call ends, so a reused Runner's later calls
// build nothing their predecessors already built. A parked coroutine is a
// live goroutine: it outlives its thread and the Run call that started it,
// so a later call's machines take it without starting one, but not its
// Runner. Once the Runner is unreachable, a GC cleanup ends the coroutines
// of every arena it holds. A Runner holds at most as many arenas as it ever
// ran workers at once. Concurrent Run calls never share an arena. Reuse is
// observation-equivalent — results and sink bytes are identical to
// fresh-machine-per-run at any Parallel setting and on any call (see
// TestRunnerArenaReuse).
//
// A run that panics yields an *ErrSimulationPanic. Its worker ends the
// coroutines of its arena, which the panicking machine may have left
// holding parts of an unfinished run, drops it and carries on with a fresh
// one.
//
// The zero value is ready to use. A Runner must not be copied after its
// first Run.
type Runner struct {
	// Parallel is the worker-pool size. Zero or negative means GOMAXPROCS.
	Parallel int
	// Sinks receive every result, in spec order. Optional.
	Sinks []Sink

	// once makes shelf, and registers the cleanup that ends its
	// coroutines, when a worker first draws an arena.
	once  sync.Once
	shelf *arenaShelf
}

// arenaShelf holds the arenas of a Runner's finished workers, their
// coroutines still parked. It is apart from the Runner so that the cleanup
// registered on the Runner can reach it once the Runner is unreachable.
type arenaShelf struct {
	mu     sync.Mutex
	arenas []*simarena.Arena
}

// stopCoroutines ends the coroutines of every shelved arena: the Runner's
// cleanup.
func (s *arenaShelf) stopCoroutines() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.arenas {
		a.StopCoroutines()
	}
}

// parked returns the Runner's shelf, made on first use.
func (r *Runner) parked() *arenaShelf {
	r.once.Do(func() {
		r.shelf = new(arenaShelf)
		runtime.AddCleanup(r, (*arenaShelf).stopCoroutines, r.shelf)
	})
	return r.shelf
}

// takeArena hands a worker a parked arena, or a new one when none is
// parked.
func (r *Runner) takeArena() *simarena.Arena {
	s := r.parked()
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.arenas)
	if n == 0 {
		return simarena.New()
	}
	a := s.arenas[n-1]
	s.arenas[n-1] = nil
	s.arenas = s.arenas[:n-1]
	return a
}

// parkArena takes back a worker's arena, its coroutines parked, for the
// Runner's next Run call.
func (r *Runner) parkArena(a *simarena.Arena) {
	s := r.parked()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arenas = append(s.arenas, a)
}

// Run executes every spec and returns the results indexed like specs. The
// returned error joins every per-run error (and any sink error); the results
// slice is always complete, with failed runs carrying their error.
func (r *Runner) Run(specs []RunSpec) ([]RunResult, error) {
	workers := r.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	results := make([]RunResult, len(specs))
	if len(specs) == 0 {
		return results, r.closeSinks(nil)
	}

	jobs := make(chan int)
	// Buffered so a finished worker never blocks on sink emission speed.
	done := make(chan int, len(specs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One arena per worker: machines built for consecutive jobs on
			// this goroutine reuse each other's parts; workers share nothing.
			// A run that panicked may have left its arena half used, so the
			// worker ends its coroutines and replaces it rather than park it.
			arena := r.takeArena()
			for i := range jobs {
				results[i] = r.runOne(specs[i], i, arena)
				var p *ErrSimulationPanic
				if errors.As(results[i].Err, &p) {
					arena.StopCoroutines()
					arena = simarena.New()
				}
				done <- i
			}
			r.parkArena(arena)
		}()
	}
	go func() {
		for i := range specs {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(done)
	}()

	// Stream to sinks in spec order: hold completed results until everything
	// before them has been emitted, so parallel and sequential sweeps produce
	// byte-identical sink output.
	var errs []error
	ready := make([]bool, len(specs))
	next := 0
	for i := range done {
		ready[i] = true
		for next < len(specs) && ready[next] {
			if err := results[next].Err; err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", specs[next], err))
			}
			for _, sink := range r.Sinks {
				if err := sink.Emit(results[next]); err != nil {
					errs = append(errs, fmt.Errorf("sink: %w", err))
				}
			}
			next++
		}
	}
	return results, r.closeSinks(errs)
}

func (r *Runner) closeSinks(errs []error) error {
	for _, sink := range r.Sinks {
		if err := sink.Close(); err != nil {
			errs = append(errs, fmt.Errorf("sink close: %w", err))
		}
	}
	return errors.Join(errs...)
}

// runOne resolves and executes a single spec through the registry, and
// recovers a panic into an *ErrSimulationPanic. The run draws its machine
// parts from the worker's arena; the spec recorded on the RunResult keeps
// the caller's Arena field (usually nil) so results do not retain the
// worker's free store.
func (r *Runner) runOne(spec RunSpec, index int, arena *simarena.Arena) (rr RunResult) {
	rr = RunResult{Spec: spec, Index: index}
	defer func() {
		if v := recover(); v != nil {
			rr.Result, rr.Err = Result{}, &ErrSimulationPanic{Spec: spec, Value: v, Stack: debug.Stack()}
		}
	}()
	w, ok := Lookup(spec.Workload)
	if !ok {
		rr.Err = fmt.Errorf("%w %q", ErrUnknownWorkload, spec.Workload)
		return rr
	}
	sys := spec.System
	if sys.Arena == nil {
		sys.Arena = arena
	}
	rr.Result, rr.Err = w.Run(sys, spec.Params)
	return rr
}

// TextSink accumulates results into a column-aligned text table (via
// internal/stats) and renders it to the writer on Close.
type TextSink struct {
	w     io.Writer
	table *stats.Table
}

// NewTextSink builds a text sink with the given table title.
func NewTextSink(w io.Writer, title string) *TextSink {
	return &TextSink{
		w: w,
		table: stats.NewTable(title,
			"Workload", "System", "N", "Density", "Init", "Tag", "Time", "DRAM", "L1 hit%", "NoC msgs", "Checked", "Error"),
	}
}

// Emit adds one result row. The machine-metric columns (L1 hit rate, NoC
// messages) stay blank for runs whose machine did not report the metric —
// the APU has no on-chip network, and failed runs have no metrics at all.
func (s *TextSink) Emit(r RunResult) error {
	errText := ""
	if r.Err != nil {
		errText = r.Err.Error()
	}
	l1, noc := "", ""
	if rate, ok := r.Result.Metrics["l1.hit_rate"]; ok {
		l1 = fmt.Sprintf("%.1f", rate*100)
	}
	if msgs, ok := r.Result.Metrics["noc.messages"]; ok {
		noc = fmt.Sprintf("%.0f", msgs)
	}
	s.table.AddRow(r.Spec.Workload, string(r.Spec.System.Kind), r.Spec.Params.N,
		r.Spec.Params.Density, r.Spec.Params.IncludeInit, r.Spec.Tag,
		r.Result.Time.String(), r.Result.DRAMAccesses, l1, noc, r.Result.Checked, errText)
	return nil
}

// Close renders the table.
func (s *TextSink) Close() error {
	_, err := fmt.Fprintln(s.w, s.table.String())
	return err
}

// jsonRecord is the JSON-lines schema for one run.
type jsonRecord struct {
	Workload     string   `json:"workload"`
	System       string   `json:"system"`
	N            int      `json:"n"`
	Density      float64  `json:"density,omitempty"`
	Seed         int64    `json:"seed"`
	IncludeInit  bool     `json:"include_init,omitempty"`
	Tag          string   `json:"tag,omitempty"`
	Preset       string   `json:"preset,omitempty"`
	Overrides    []string `json:"overrides,omitempty"`
	Label        string   `json:"label,omitempty"`
	SimTimePs    int64    `json:"sim_time_ps"`
	DRAMAccesses uint64   `json:"dram_accesses"`
	Checked      bool     `json:"checked"`
	// Metrics carries the per-run machine metrics; encoding/json sorts the
	// keys, so JSONL output is byte-stable at any parallelism.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Error   string             `json:"error,omitempty"`
}

// JSONLSink writes one JSON object per result, suitable for jq and tooling.
type JSONLSink struct {
	enc *json.Encoder
}

// NewJSONLSink builds a JSON-lines sink on the writer.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit writes one line.
func (s *JSONLSink) Emit(r RunResult) error {
	rec := jsonRecord{
		Workload:     r.Spec.Workload,
		System:       string(r.Spec.System.Kind),
		N:            r.Spec.Params.N,
		Density:      r.Spec.Params.Density,
		Seed:         r.Spec.Params.Seed,
		IncludeInit:  r.Spec.Params.IncludeInit,
		Tag:          r.Spec.Tag,
		Preset:       r.Spec.Preset,
		Overrides:    r.Spec.Overrides,
		Label:        r.Result.Label,
		SimTimePs:    int64(r.Result.Time),
		DRAMAccesses: r.Result.DRAMAccesses,
		Checked:      r.Result.Checked,
		Metrics:      r.Result.Metrics,
	}
	if r.Err != nil {
		rec.Error = r.Err.Error()
	}
	return s.enc.Encode(rec)
}

// Close is a no-op; JSON lines are flushed as they are emitted.
func (s *JSONLSink) Close() error { return nil }
