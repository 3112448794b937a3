package analysis

import (
	"go/ast"
	"go/token"
)

func implicitFMARule() Rule {
	return Rule{
		Name: "implicit-fma",
		Doc: "flag float a*b ± c, c ± a*b and c ±= a*b in deterministic packages: the Go spec lets " +
			"arm64, ppc64le, s390x and riscv64 fuse them into one multiply-add whose rounding differs " +
			"from amd64's; write the product float64(a*b) to round it first",
		AppliesTo: isDeterministicPackage,
		Run: func(p *Pass) {
			p.Inspect(func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if (n.Op != token.ADD && n.Op != token.SUB) || !isFloat(p.Info.TypeOf(n)) || p.Info.Types[n].Value != nil {
						return true
					}
					if isProduct(p, n.X) || isProduct(p, n.Y) {
						reportFMA(p, n.OpPos, n.Op.String())
					}
				case *ast.AssignStmt:
					if (n.Tok != token.ADD_ASSIGN && n.Tok != token.SUB_ASSIGN) || len(n.Rhs) != 1 {
						return true
					}
					if isFloat(p.Info.TypeOf(n.Lhs[0])) && isProduct(p, n.Rhs[0]) {
						reportFMA(p, n.TokPos, n.Tok.String())
					}
				}
				return true
			})
		},
	}
}

// isProduct reports whether e, through parentheses and negation, is a
// float multiplication evaluated at run time. An explicit conversion such
// as float64(a*b) is a call, not a product, so it is never one.
func isProduct(p *Pass, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.UnaryExpr:
			if x.Op == token.SUB {
				e = x.X
				continue
			}
		case *ast.BinaryExpr:
			return x.Op == token.MUL && isFloat(p.Info.TypeOf(x)) && p.Info.Types[x].Value == nil
		}
		return false
	}
}

func reportFMA(p *Pass, pos token.Pos, op string) {
	p.Reportf(pos, "implicit-fma",
		"float product and %s may compile to one fused multiply-add on arm64, ppc64le, s390x and "+
			"riscv64, rounding differently from amd64; write the product as float64(a*b)", op)
}
