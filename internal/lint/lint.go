// Package lint implements unizklint, a suite of static analyzers that
// mechanically enforce the prover's safety invariants (DESIGN.md §8).
// PR 1 established these invariants by convention and checked them
// dynamically with the fault-injection harness; this package turns them
// into compile-time rules, the source-level analogue of the
// "verify structure before arithmetic" discipline the paper's hardware
// datapaths enforce.
//
// The nine analyzers:
//
//   - fieldcanon: Goldilocks elements must be canonical (< p) so equality
//     is plain ==. Raw field.Element(x) conversions from arbitrary
//     integers outside internal/field bypass canonicalization; callers
//     must use field.New.
//   - wirecheck: errors from wire.Reader decoding must be consulted, and
//     decoded lengths must be validated before sizing allocations.
//   - prooferrflow: every error returned on a Verify* call graph must
//     wrap the internal/prooferr taxonomy, and panics reachable from a
//     verifier entry point must carry an explicit allow directive.
//   - ctxpoll: a function accepting a context.Context must not contain an
//     unbounded loop that never consults the context (the ProveContext
//     cancellation invariant).
//   - nodeterminism: packages that touch the Fiat–Shamir transcript
//     (direct importers of internal/poseidon) must not use math/rand or
//     time.Now, and must never feed map-iteration order into
//     Challenger observations.
//   - lockguard: struct fields annotated //unizklint:guardedby <mutex>
//     may only be accessed while that sibling mutex is provably held
//     (write access requires write-hold); //unizklint:holds on a
//     function declares a caller-established lock precondition.
//   - goroutinelife: every go statement must be tied to a lifecycle —
//     WaitGroup Done/Wait pairing, context use, or channel-range —
//     or carry an audited allow directive.
//   - atomicmix: no package-level sync/atomic function may be used;
//     typed atomics (atomic.Int64 &co.) make mixed atomic/plain access
//     impossible to write.
//   - hotalloc: functions annotated //unizklint:hotpath must avoid
//     allocation-inducing constructs (make/append/new, fmt, string
//     concatenation, field-element boxing, escaping closures); the
//     internal/allocgate AllocsPerRun test pins the same kernels
//     dynamically.
//
// Findings can be suppressed, one site at a time, with a directive on the
// flagged line or the line above, in either form:
//
//	//unizklint:allow <analyzer> <reason>
//	//unizklint:allow <analyzer>(<reason>)
//
// The analyzer name must be one of the nine above and the reason must be
// non-empty; malformed directives are themselves diagnostics. The
// framework is self-contained (no golang.org/x/tools dependency, which
// keeps the gate runnable in offline CI) but mirrors the go/analysis
// Analyzer/Pass shape so the analyzers could be ported to a vet tool
// verbatim.
package lint

import (
	"fmt"
	"go/token"
)

// An Analyzer is one named invariant check over a loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is a one-paragraph description of the rule and the invariant it
	// guards.
	Doc string
	// Run analyzes one package, reporting findings through the pass.
	Run func(*Pass)
}

// A Pass is one analyzer's view of one loaded package plus access to the
// package's already-loaded dependencies (for cross-package call-graph
// rules like prooferrflow).
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	// Dep returns an already-loaded module-local dependency by import
	// path, or nil for standard-library (export-data-only) imports.
	Dep func(path string) *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding at one source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzers returns the full unizklint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FieldCanon, WireCheck, ProofErrFlow, CtxPoll, NoDeterminism,
		LockGuard, GoroutineLife, AtomicMix, HotAlloc,
	}
}

// KnownAnalyzer reports whether name identifies a registered analyzer
// (used to validate allow directives).
func KnownAnalyzer(name string) bool {
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}
