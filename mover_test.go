package svagc_test

import (
	"go/ast"
	"go/token"
	"strings"
	"testing"
)

// TestOneMover keeps Algorithm 3's swap-or-memmove rule and the swap
// recovery ladder in one place: outside the kernel itself, no non-test
// code calls SwapVA or SwapVAVec except core.Mover. benchmark/ probes the
// raw syscall on purpose.
func TestOneMover(t *testing.T) {
	parseGoFiles(t, ".", func(path string, fset *token.FileSet, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") || path == "internal/core/mover.go" ||
			strings.HasPrefix(path, "internal/kernel/") || strings.HasPrefix(path, "benchmark/") {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
					(sel.Sel.Name == "SwapVA" || sel.Sel.Name == "SwapVAVec") {
					t.Errorf("%s: %s called outside internal/core/mover.go",
						fset.Position(call.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	})
}
