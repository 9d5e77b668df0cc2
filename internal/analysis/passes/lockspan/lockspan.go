// Package lockspan enforces, flow-sensitively, that no mutex is held
// across an operation that can block or touch the outside world:
// channel sends/receives/selects/ranges, network and file I/O,
// time.Sleep, WaitGroup.Wait, and the measurement plane's Submit/Seal
// boundaries (one slow peer behind a held ingest lock is a stalled
// pipeline). Held-lock facts are propagated over the function's
// control-flow graph by the dataflow solver, so a Lock in one branch
// is still held after the join, through loop back-edges, and across
// any statement nesting.
//
// The analysis is a forward may-analysis: a lock counts as held at a
// program point if it is held on any path reaching it. Each distinct
// receiver expression (`mu`, `s.mu`, ...) is one fact bit; Lock/RLock
// generates the bit, Unlock/RUnlock kills it, and a deferred Unlock
// keeps the lock held to every exit — blocking under a deferred unlock
// is still a finding. Function literals are analyzed as functions in
// their own right.
package lockspan

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"github.com/magellan-p2p/magellan/internal/analysis"
	"github.com/magellan-p2p/magellan/internal/analysis/cfg"
	"github.com/magellan-p2p/magellan/internal/analysis/dataflow"
)

// Analyzer is the flow-sensitive lock-span checker.
var Analyzer = &analysis.Analyzer{
	Name: "lockspan",
	Doc: "flag mutexes provably held across blocking channel operations, " +
		"network/file I/O, or Submit/Seal boundaries (CFG dataflow)",
	Run: run,
}

// blockingMethods are method names that block on the network regardless
// of receiver package (they appear on *net.UDPConn, net.PacketConn,
// net.Listener, and wrappers thereof).
var blockingMethods = map[string]bool{
	"ReadFromUDP": true, "ReadMsgUDP": true, "WriteToUDP": true, "WriteMsgUDP": true,
	"ReadFrom": true, "WriteTo": true, "Accept": true, "AcceptTCP": true, "AcceptUDP": true,
}

// osFileMethods are *os.File methods that reach the kernel.
var osFileMethods = map[string]bool{
	"Read": true, "ReadAt": true, "Write": true, "WriteAt": true,
	"Sync": true, "Truncate": true, "ReadDir": true, "Readdir": true,
}

// osPkgFuncs are package os functions that reach the filesystem.
var osPkgFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "Remove": true, "RemoveAll": true,
	"Rename": true, "Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"Stat": true, "Lstat": true, "ReadDir": true, "Truncate": true,
}

func run(pass *analysis.Pass) error {
	info := pass.Pkg.TypesInfo
	term := analysis.CallTerminator(info, pass.Facts)
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkBody(pass, info, n.Body, term)
				}
			case *ast.FuncLit:
				checkBody(pass, info, n.Body, term)
			}
			return true
		})
	}
	return nil
}

// checkBody runs the held-locks dataflow over one function body.
func checkBody(pass *analysis.Pass, info *types.Info, body *ast.BlockStmt, term func(*ast.CallExpr) cfg.TermKind) {
	g := cfg.New(body, cfg.Options{CallTerm: term})

	// Intern lock receivers in first-appearance order (deterministic:
	// blocks and nodes are in source order).
	bitOf := map[string]int{}
	var names []string
	for _, blk := range g.Blocks {
		for _, node := range blk.Nodes {
			if _, isDefer := node.(*ast.DeferStmt); isDefer {
				continue
			}
			cfg.Visit(node, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if recv, _, ok := lockCall(info, call); ok {
						if _, seen := bitOf[recv]; !seen && len(names) < 64 {
							bitOf[recv] = len(names)
							names = append(names, recv)
						}
					}
				}
				return true
			})
		}
	}
	if len(names) == 0 {
		return
	}

	transfer := func(b *cfg.Block, in dataflow.Bits) dataflow.Bits {
		held := in
		for _, node := range b.Nodes {
			held = applyNode(info, node, bitOf, held, nil)
		}
		return held
	}
	in := dataflow.Forward(g, dataflow.Problem{Transfer: transfer})

	for _, blk := range g.Blocks {
		held := in[blk.Index]
		for _, node := range blk.Nodes {
			held = applyNode(info, node, bitOf, held, func(pos token.Pos, what string, bits dataflow.Bits) {
				report(pass, pos, what, bits, names)
			})
		}
	}
}

// applyNode threads the held-lock set through one block node, invoking
// onBlock for every blocking operation encountered while a lock is
// held. Deferred statements neither block now nor release anything: a
// deferred Unlock runs at function exit, which is exactly why the lock
// stays held through the rest of the body.
func applyNode(info *types.Info, node ast.Node, bitOf map[string]int, held dataflow.Bits, onBlock func(token.Pos, string, dataflow.Bits)) dataflow.Bits {
	if _, isDefer := node.(*ast.DeferStmt); isDefer {
		return held
	}
	cfg.Visit(node, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if recv, op, ok := lockCall(info, m); ok {
				if bit, seen := bitOf[recv]; seen {
					switch op {
					case "Lock", "RLock":
						held |= 1 << bit
					case "Unlock", "RUnlock":
						held &^= 1 << bit
					}
				}
				return true
			}
			if held != 0 && onBlock != nil {
				if what, blocking := blockingCall(info, m); blocking {
					onBlock(m.Pos(), what, held)
				}
			}
		case *ast.SendStmt:
			if held != 0 && onBlock != nil {
				onBlock(m.Arrow, "a channel send", held)
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && held != 0 && onBlock != nil {
				onBlock(m.OpPos, "a channel receive", held)
			}
		case *ast.SelectStmt:
			if held != 0 && onBlock != nil && !hasDefault(m) {
				onBlock(m.Select, "a blocking select", held)
			}
		case *ast.RangeStmt:
			if held != 0 && onBlock != nil {
				if tv, ok := info.Types[m.X]; ok && tv.Type != nil {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						onBlock(m.X.Pos(), "a channel range", held)
					}
				}
			}
		}
		return true
	})
	return held
}

func report(pass *analysis.Pass, pos token.Pos, what string, bits dataflow.Bits, names []string) {
	var held []string
	for i, name := range names {
		if bits&(1<<i) != 0 {
			held = append(held, name)
		}
	}
	slices.Sort(held)
	pass.Reportf(pos, "%s is held across %s; shrink the critical section",
		strings.Join(held, ", "), what)
}

// lockCall matches expr against recv.{Lock,RLock,Unlock,RUnlock}() where
// the method comes from package sync (directly or via embedding).
func lockCall(info *types.Info, call *ast.CallExpr) (recv, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return types.ExprString(sel.X), fn.Name(), true
	}
	return "", "", false
}

// blockingCall recognizes calls that can block indefinitely or reach
// the outside world.
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := analysis.Callee(info, call)
	if fn == nil {
		return "", false
	}
	if analysis.IsPkgFunc(fn, "time", "Sleep") {
		return "time.Sleep", true
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "os" && osPkgFuncs[fn.Name()] {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			return "file I/O (os." + fn.Name() + ")", true
		}
	}
	recv := analysis.ReceiverNamed(fn)
	if recv == nil {
		return "", false
	}
	if analysis.NamedFrom(recv, "sync", "WaitGroup") && fn.Name() == "Wait" {
		return "WaitGroup.Wait", true
	}
	if blockingMethods[fn.Name()] {
		return "network I/O (" + fn.Name() + ")", true
	}
	pkg := recv.Obj().Pkg()
	if pkg != nil && pkg.Path() == "net" && (fn.Name() == "Read" || fn.Name() == "Write") {
		return "network I/O (" + fn.Name() + ")", true
	}
	if analysis.NamedFrom(recv, "os", "File") && osFileMethods[fn.Name()] {
		return "file I/O (File." + fn.Name() + ")", true
	}
	// The measurement plane's ingest/seal boundaries: Submit and Seal
	// on internal/trace types do I/O, take their own locks, and fan
	// out to sinks — never call them with a lock held.
	if pkg != nil && analysis.InInternalSegment(pkg.Path(), []string{"trace"}) &&
		(fn.Name() == "Submit" || fn.Name() == "Seal") {
		return recv.Obj().Name() + "." + fn.Name(), true
	}
	return "", false
}

func hasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
