package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// writerMethods are emitter methods whose error results must be checked
// when called on anything that can actually fail.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "Flush": true,
	"Encode": true, "Close": true,
}

// infallibleWriters never return a non-nil error from Write; discarding
// their results is idiomatic, not a leak.
var infallibleWriters = map[string]bool{
	"bytes.Buffer":    true,
	"strings.Builder": true,
}

func uncheckedErrorRule() Rule {
	return Rule{
		Name: "unchecked-error",
		Doc: "flag discarded error results from encoding/json and io-writer calls in the " +
			"CSV/JSON emitters (trace, experiments, metrics, service); a silently truncated artifact " +
			"poisons every comparison made from it",
		AppliesTo: isEmitterPackage,
		Run: func(p *Pass) {
			p.Inspect(func(n ast.Node) bool {
				stmt, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(p, call)
				if fn == nil || !returnsError(fn) {
					return true
				}
				if !emitterCallee(fn) {
					return true
				}
				p.Reportf(call.Pos(), "unchecked-error",
					"result of %s discarded; emitter I/O errors must be checked or the artifact "+
						"can be silently truncated", calleeName(fn))
				return true
			})
		},
	}
}

// calleeFunc resolves the called function or method, or nil.
func calleeFunc(p *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			return true
		}
	}
	return false
}

// emitterCallee reports whether fn is an encoding/json function or method,
// an fmt.Fprint* wrapper, an io package function, or a fallible writer
// method — the calls whose errors the emitters must propagate.
func emitterCallee(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg != nil {
		switch pkg.Path() {
		case "encoding/json", "io":
			return true
		case "fmt":
			return strings.HasPrefix(fn.Name(), "Fprint")
		}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if !writerMethods[fn.Name()] {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if named, ok := recv.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && infallibleWriters[obj.Pkg().Path()+"."+obj.Name()] {
			return false
		}
	}
	return true
}

func calleeName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
