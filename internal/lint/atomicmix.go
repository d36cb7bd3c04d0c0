package lint

import (
	"go/ast"
	"go/types"
)

// AtomicMix flags every reference to a package-level sync/atomic
// function (atomic.AddInt64, atomic.LoadPointer,
// atomic.CompareAndSwapUint32, …). Those functions act on plain
// variables, so nothing stops another site reading or writing the same
// variable plainly: a data race the race detector catches only when the
// schedule cooperates. The typed wrappers (atomic.Int64,
// atomic.Pointer[T] &co.) carry atomicity in the field's type, which
// makes mixed access impossible to write; they are the only atomics the
// tree uses.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc: "package-level sync/atomic functions are forbidden: use the typed " +
		"atomic.Int64-style wrappers, whose type makes mixed atomic/plain access unwritable",
	Run: runAtomicMix,
}

func runAtomicMix(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := p.Pkg.Info.Uses[id].(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" &&
				fn.Type().(*types.Signature).Recv() == nil {
				p.Reportf(id.Pos(), "sync/atomic.%s acts on a plain variable; "+
					"use a typed atomic.Int64-style field instead", fn.Name())
			}
			return true
		})
	}
}
