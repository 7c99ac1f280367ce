package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// Session is the telemetry of one CLI invocation, configured by the
// shared flags -trace, -runlog, -metrics-out, -progress and -debug-addr.
// Declare the flags with NewSession before parsing them, call Start once
// they are parsed, hand Hooks and Root to the pipeline, and Close at the
// end of the run.
type Session struct {
	// RunID correlates every artifact the run writes (trace root attr,
	// run-log lines, the sam_run_info family); Start mints it.
	RunID string
	// Hooks receives the pipeline's events; nil when no flag asks for any.
	Hooks *Hooks

	traceOut, runlogOut, metricsOut, debugAddr *string
	progress                                   *bool

	reg        *Registry
	trace      *Trace
	runlog     *RunLog
	runlogFile *os.File
	closeDebug func()
}

// NewSession declares the telemetry flags on fs.
func NewSession(fs *flag.FlagSet) *Session {
	return &Session{
		traceOut:   fs.String("trace", "", "write the run's phase trace (JSONL spans) to this file"),
		runlogOut:  fs.String("runlog", "", "append the run's structured events as JSONL (framed by run_start/run_end and stamped with the run ID) to this file"),
		metricsOut: fs.String("metrics-out", "", "write the final telemetry registry in Prometheus text format to this file at exit"),
		progress:   fs.Bool("progress", false, "stream per-epoch training and per-phase generation progress to stderr"),
		debugAddr:  fs.String("debug-addr", "", "serve /debug/pprof and /metrics on this address (e.g. :6060)"),
	}
}

// Start mints the run ID and opens every sink the flags ask for: the
// process registry (stamped with sam_run_info) fed by MetricsHooks, the
// debug server, progress lines on stderr, the run log, and a trace named
// name whose root carries the run ID and build metadata.
func (s *Session) Start(name string) error {
	s.RunID = NewRunID()
	meta := BuildMeta()
	if *s.debugAddr != "" || *s.metricsOut != "" {
		s.reg = Default()
		StampRunInfo(s.reg, s.RunID, meta)
		s.Hooks = MetricsHooks(s.reg)
	}
	if *s.debugAddr != "" {
		addr, closeDebug, err := ServeDebug(*s.debugAddr, s.reg)
		if err != nil {
			return err
		}
		s.closeDebug = closeDebug
		fmt.Fprintf(os.Stderr, "debug server on http://%s (/debug/pprof, /metrics)\n", addr)
	}
	if *s.progress {
		s.Hooks = Merge(s.Hooks, ProgressHooks(os.Stderr))
	}
	if *s.runlogOut != "" {
		f, err := os.Create(*s.runlogOut)
		if err != nil {
			return fmt.Errorf("runlog: %w", err)
		}
		s.runlogFile = f
		s.runlog = NewRunLog(f, s.RunID)
		s.Hooks = Merge(s.Hooks, RunLogHooks(s.runlog))
	}
	if *s.traceOut != "" {
		s.trace = NewTrace(name)
		s.trace.Root().SetAttr("run_id", s.RunID)
		meta.SetAttrs(s.trace.Root())
	}
	return nil
}

// Root returns the trace's root span, or nil when -trace is off (or on a
// nil session). Attach run attributes to it and nest pipeline phases
// under it.
func (s *Session) Root() *Span {
	if s == nil {
		return nil
	}
	return s.trace.Root()
}

// Close finishes the run's artifacts in order — ends and writes the trace
// and prints its phase tree to stdout, closes the run log, writes the
// metrics file — then stops the debug server. A nil session closes
// cleanly.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	if s.trace != nil {
		s.trace.Root().End()
		if err := writeFile(*s.traceOut, s.trace.WriteJSONL); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Println("== phase trace ==")
		WriteTraceTree(os.Stdout, AnalyzeTrace(s.trace.records()))
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *s.traceOut)
	}
	if s.runlog != nil {
		if err := s.runlog.Close(); err != nil {
			s.runlogFile.Close()
			return fmt.Errorf("runlog: %w", err)
		}
		if err := s.runlogFile.Close(); err != nil {
			return fmt.Errorf("runlog: %w", err)
		}
	}
	if *s.metricsOut != "" {
		err := writeFile(*s.metricsOut, func(w io.Writer) error { return WritePrometheus(w, s.reg) })
		if err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
	}
	if s.closeDebug != nil {
		s.closeDebug()
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
