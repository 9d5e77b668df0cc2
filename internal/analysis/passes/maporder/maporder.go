// Package maporder flags map iteration whose visit order leaks into
// output: writing to an encoder/writer from inside a `for range m`
// body, or collecting map keys/values into a slice that is never
// sorted afterwards — whether the body appends itself or calls a local
// closure that does. Either one makes a snapshot CSV or trace file
// differ between two runs of the same seed — the exact failure mode
// Magellan's report pipeline must never have.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/magellan-p2p/magellan/internal/analysis"
)

// Analyzer is the map-order checker.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag `for range` over a map that writes to an encoder/writer in " +
		"the loop body, or that appends to a slice which is never sorted " +
		"afterwards in the same function, either in the body or through a " +
		"local closure the body calls",
	Run: run,
}

// emitMethods are writer/encoder method names that serialize data in
// call order. Writing one inside a map range bakes the iteration order
// into the output, even when the writer itself cannot fail.
var emitMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteRow": true, "WriteAll": true, "Encode": true, "EncodeElement": true,
}

func run(pass *analysis.Pass) error {
	info := pass.Pkg.TypesInfo
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, info, fd.Body)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, info *types.Info, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if tv, ok := info.Types[rs.X]; !ok || !isMap(tv.Type) {
			return true
		}
		checkRange(pass, info, body, rs)
		return true
	})
}

func checkRange(pass *analysis.Pass, info *types.Info, fnBody *ast.BlockStmt, rs *ast.RangeStmt) {
	// Slices fed by append inside the loop, keyed by the slice variable,
	// remembering the first append position for the report.
	appended := make(map[types.Object]token.Pos)
	noteAppends(info, rs.Body, rs.Pos(), appended)

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, emitting := emittingCall(info, call); emitting {
			pass.Reportf(call.Pos(),
				"%s inside iteration over a map writes in nondeterministic order; "+
					"collect and sort the keys first", name)
		}
		// A closure the body calls appends in iteration order too.
		if lit := boundFuncLit(info, fnBody, rs.Pos(), call); lit != nil {
			noteAppends(info, lit, rs.Pos(), appended)
		}
		return true
	})

	for obj, pos := range appended {
		if !sortedAfter(info, fnBody, rs.End(), obj) {
			pass.Reportf(pos,
				"%s accumulates map keys/values in iteration order but is never "+
					"sorted afterwards; sort it before the order can leak into output",
				obj.Name())
		}
	}
}

// noteAppends records in appended every slice an append inside body
// accumulates into that outlives the loop at loop: declared before the
// loop and outside body.
func noteAppends(info *types.Info, body ast.Node, loop token.Pos, appended map[types.Object]token.Pos) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isAppend(info, call) || len(call.Args) == 0 {
				continue
			}
			target, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Uses[target]
			if obj == nil || obj.Pos() >= loop || (body.Pos() <= obj.Pos() && obj.Pos() < body.End()) {
				continue // loop- or closure-local accumulation; order can't escape
			}
			if _, seen := appended[obj]; !seen {
				appended[obj] = as.Pos()
			}
		}
		return true
	})
}

// boundFuncLit returns the function literal that call's callee, a local
// variable, was last assigned before pos in fnBody (`f := func…` or
// `f = func…`), or nil.
func boundFuncLit(info *types.Info, fnBody *ast.BlockStmt, pos token.Pos, call *ast.CallExpr) *ast.FuncLit {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	obj, ok := info.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	var lit *ast.FuncLit
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if n == nil || n.Pos() >= pos {
			return false
		}
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, lhs := range as.Lhs {
				name, _ := ast.Unparen(lhs).(*ast.Ident)
				fl, isLit := ast.Unparen(as.Rhs[i]).(*ast.FuncLit)
				if isLit && name != nil && (info.Defs[name] == obj || info.Uses[name] == obj) {
					lit = fl
				}
			}
		}
		return true
	})
	return lit
}

// emittingCall reports whether call serializes data: a writer/encoder
// method, fmt.Fprint*/fmt.Print*, or io.WriteString.
func emittingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := analysis.Callee(info, call)
	if fn == nil {
		return "", false
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if emitMethods[fn.Name()] {
			return "method " + fn.Name(), true
		}
		return "", false
	}
	if fn.Pkg() == nil {
		return "", false
	}
	switch path := fn.Pkg().Path(); {
	case path == "fmt" && (strings.HasPrefix(fn.Name(), "Fprint") || strings.HasPrefix(fn.Name(), "Print")):
		return "fmt." + fn.Name(), true
	case path == "io" && fn.Name() == "WriteString":
		return "io.WriteString", true
	}
	return "", false
}

func isAppend(info *types.Info, call *ast.CallExpr) bool {
	ident, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	builtin, ok := info.Uses[ident].(*types.Builtin)
	return ok && builtin.Name() == "append"
}

// sortedAfter reports whether, past pos in the enclosing function body,
// obj is passed to anything in package sort or slices.
func sortedAfter(info *types.Info, fnBody *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || sorted {
			return !sorted
		}
		fn := analysis.Callee(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if mentions(info, arg, obj) {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

func mentions(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if ident, ok := n.(*ast.Ident); ok && info.Uses[ident] == obj {
			found = true
		}
		return !found
	})
	return found
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
