package jdf

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"parsec/internal/ptg"
	"parsec/internal/ptg/ptgtest"
	"parsec/internal/runtime"
)

// exprEnv compiles a standalone expression by wrapping it in a minimal
// class and extracting the priority function.
func exprEval(t *testing.T, src string, env Env, args ...int) int {
	t.Helper()
	full := fmt.Sprintf("T(a, b, c)\n a = 0 .. 0\n b = 0 .. 0\n c = 0 .. 0\n ; %s\nBODY none\nEND\n", src)
	g, err := Compile("expr", full, env)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	var a ptg.Args
	copy(a[:], args)
	return int(g.ClassByName("T").Priority(a))
}

func TestExpressions(t *testing.T) {
	env := Env{
		Consts: map[string]int{"N": 10},
		Funcs:  map[string]func(...int) int{"twice": func(a ...int) int { return 2 * a[0] }},
	}
	cases := []struct {
		src  string
		args []int
		want int
	}{
		{"1 + 2 * 3", nil, 7},
		{"(1 + 2) * 3", nil, 9},
		{"10 / 3", nil, 3},
		{"10 % 3", nil, 1},
		{"-a + 5", []int{2}, 3},
		{"N - a", []int{4}, 6},
		{"a == 2 ? 100 : 200", []int{2}, 100},
		{"a == 2 ? 100 : 200", []int{3}, 200},
		{"a < b && b < c", []int{1, 2, 3}, 1},
		{"a < b && b < c", []int{1, 5, 3}, 0},
		{"a > 0 || c > 0", []int{0, 0, 1}, 1},
		{"!(a == b)", []int{1, 1}, 0},
		{"twice(a + 1)", []int{3}, 8},
		{"a != b", []int{1, 2}, 1},
		{"a >= 1", []int{1}, 1},
		{"a <= 0", []int{1}, 0},
	}
	for _, c := range cases {
		if got := exprEval(t, c.src, env, c.args...); got != c.want {
			t.Errorf("%q with %v = %d, want %d", c.src, c.args, got, c.want)
		}
	}
}

func TestExpressionErrors(t *testing.T) {
	for _, src := range []string{
		"unknown_ident",
		"unknown_fn(1)",
		"1 +",
		"(1 + 2",
	} {
		full := fmt.Sprintf("T(a)\n a = 0 .. 0\n ; %s\nBODY none\nEND\n", src)
		if _, err := Compile("bad", full, Env{}); err == nil {
			t.Errorf("%q compiled", src)
		}
	}
}

// fig1Source is the paper's Fig 1 GEMM-chain PTG, transcribed into the
// dialect: DFILL starts each chain, GEMMs pass C serially, the last GEMM
// sends C to SORT.
const fig1Source = `
# Fig 1: GEMM tasks organized in a chain.
DFILL(L1)
  L1 = 0 .. size_L1 - 1
  : rr(L1)
  WRITE C <- NEW(csize)
          -> C GEMM(L1, 0)
  ; size_L1 - L1
BODY dfill
END

READA(L1, L2)
  L1 = 0 .. size_L1 - 1
  L2 = 0 .. size_L2(L1) - 1
  : reader_node(L1, L2)
  WRITE D <- DATA ablock(L1, L2)
          -> A GEMM(L1, L2)
  ; size_L1 - L1 + 5 * P
BODY reada
END

READB(L1, L2)
  L1 = 0 .. size_L1 - 1
  L2 = 0 .. size_L2(L1) - 1
  : reader_node(L1, L2)
  WRITE D <- DATA bblock(L1, L2)
          -> B GEMM(L1, L2)
  ; size_L1 - L1 + 5 * P
BODY readb
END

GEMM(L1, L2)
  L1 = 0 .. size_L1 - 1
  L2 = 0 .. size_L2(L1) - 1
  : rr(L1)
  READ A <- D READA(L1, L2)
  READ B <- D READB(L1, L2)
  RW C <- (L2 == 0) ? C DFILL(L1)
       <- C GEMM(L1, L2 - 1)
       -> (L2 < size_L2(L1) - 1) ? C GEMM(L1, L2 + 1)
       -> (L2 == size_L2(L1) - 1) ? C SORT(L1)
  ; size_L1 - L1 + P
BODY gemm
END

SORT(L1)
  L1 = 0 .. size_L1 - 1
  : rr(L1)
  READ C <- C GEMM(L1, size_L2(L1) - 1)
  ; size_L1 - L1
BODY sort
END
`

func fig1Env(numChains int, chainLen func(int) int, results []float64) Env {
	var mu sync.Mutex
	input := func(kind, l1, l2 int) float64 {
		return float64(kind*1000+l1*10+l2) / 7
	}
	return Env{
		Consts: map[string]int{
			"size_L1": numChains,
			"P":       4,
			"csize":   8,
		},
		Funcs: map[string]func(...int) int{
			"size_L2":     func(a ...int) int { return chainLen(a[0]) },
			"rr":          func(a ...int) int { return 0 },
			"reader_node": func(a ...int) int { return 0 },
		},
		Data: map[string]func(args []int) ptg.DataRef{
			"ablock": func(args []int) ptg.DataRef {
				return ptg.DataRef{ID: fmt.Sprintf("a(%d,%d)", args[0], args[1])}
			},
			"bblock": func(args []int) ptg.DataRef {
				return ptg.DataRef{ID: fmt.Sprintf("b(%d,%d)", args[0], args[1])}
			},
		},
		Bodies: map[string]func(*ptg.Ctx){
			"dfill": func(ctx *ptg.Ctx) { ctx.Out[0] = float64(0) },
			"reada": func(ctx *ptg.Ctx) { ctx.Out[0] = input(1, ctx.Args[0], ctx.Args[1]) },
			"readb": func(ctx *ptg.Ctx) { ctx.Out[0] = input(2, ctx.Args[0], ctx.Args[1]) },
			"gemm": func(ctx *ptg.Ctx) {
				a := ctx.In[0].(float64)
				b := ctx.In[1].(float64)
				c := ctx.In[2].(float64)
				ctx.Out[2] = c + a*b
			},
			"sort": func(ctx *ptg.Ctx) {
				mu.Lock()
				results[ctx.Args[0]] = ctx.In[0].(float64)
				mu.Unlock()
			},
		},
	}
}

func TestCompileFig1AndRun(t *testing.T) {
	const numChains = 4
	chainLen := func(l1 int) int { return 3 + l1 }
	results := make([]float64, numChains)
	g, err := Compile("fig1", fig1Source, fig1Env(numChains, chainLen, results))
	if err != nil {
		t.Fatal(err)
	}
	counts, total := g.CountTasks()
	wantGemms := 0
	for l1 := 0; l1 < numChains; l1++ {
		wantGemms += chainLen(l1)
	}
	if counts["GEMM"] != wantGemms {
		t.Errorf("GEMM count = %d, want %d", counts["GEMM"], wantGemms)
	}
	if total != numChains*2+wantGemms*3 {
		t.Errorf("total = %d", total)
	}
	if _, err := runtime.Run(g, runtime.Config{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	// Sequential check: c = sum over l2 of a*b.
	for l1 := 0; l1 < numChains; l1++ {
		want := 0.0
		for l2 := 0; l2 < chainLen(l1); l2++ {
			want += float64(1000+l1*10+l2) / 7 * (float64(2000+l1*10+l2) / 7)
		}
		if d := results[l1] - want; d > 1e-9 || d < -1e-9 {
			t.Errorf("chain %d: %v, want %v", l1, results[l1], want)
		}
	}
}

// TestSkeletonBindsAcrossCompilations: two compilations of the same JDF
// source against the same environment are the same graph by
// construction, so a skeleton resolved from one drives the other exactly
// as that graph's own inspection would.
func TestSkeletonBindsAcrossCompilations(t *testing.T) {
	chainLen := func(l1 int) int { return 2 + l1%3 }
	compile := func() *ptg.Graph {
		g, err := Compile("fig1", fig1Source, fig1Env(5, chainLen, make([]float64, 5)))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	sk, err := ptg.NewSkeleton(compile())
	if err != nil {
		t.Fatal(err)
	}
	bound := compile()
	bound.Bind(sk)
	ptgtest.SameExecution(t, bound, compile())
}

func TestCompiledPrioritiesMatchPaper(t *testing.T) {
	results := make([]float64, 2)
	g, err := Compile("fig1", fig1Source, fig1Env(2, func(int) int { return 2 }, results))
	if err != nil {
		t.Fatal(err)
	}
	read := g.ClassByName("READA")
	gemm := g.ClassByName("GEMM")
	a := ptg.A2(0, 0)
	// Read offset 5*P, GEMM offset P with P = 4.
	if read.Priority(a)-gemm.Priority(a) != 16 {
		t.Errorf("priority gap = %d, want 16", read.Priority(a)-gemm.Priority(a))
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"missing END", "T(a)\n a = 0 .. 1\nBODY none\n"},
		{"wrong range name", "T(a)\n b = 0 .. 1\nBODY none\nEND\n"},
		{"too many params", "T(a, b, c, d)\n a = 0 .. 1\nBODY none\nEND\n"},
		{"unknown body", "T(a)\n a = 0 .. 1\nBODY nosuchbody\nEND\n"},
		{"unknown data", "T(a)\n a = 0 .. 1\n WRITE D <- DATA nosuch(a)\nBODY none\nEND\n"},
		{"NEW on output", "T(a)\n a = 0 .. 1\n WRITE D -> NEW(8)\nBODY none\nEND\n"},
		{"dangling target", "T(a)\n a = 0 .. 0\n WRITE D <- NEW(8)\n -> D U(a)\nBODY none\nEND\n"},
		{"bad char", "T(a)\n a = 0 .. 1 @\nBODY none\nEND\n"},
	}
	for _, c := range cases {
		if _, err := Compile(c.name, c.src, Env{}); err == nil {
			t.Errorf("%s: compiled without error", c.name)
		}
	}
}

func TestLexer(t *testing.T) {
	toks, err := lex("A <- (x) ? .. -> == # comment\nnext")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tok := range toks {
		kinds = append(kinds, tok.String())
	}
	joined := strings.Join(kinds, " ")
	if !strings.Contains(joined, `"<-"`) || !strings.Contains(joined, `".."`) ||
		!strings.Contains(joined, `"->"`) || !strings.Contains(joined, `"=="`) {
		t.Errorf("lexed: %s", joined)
	}
	// Comment swallowed, newline kept, "next" present.
	if !strings.Contains(joined, `"next"`) || strings.Contains(joined, "comment") {
		t.Errorf("comment handling: %s", joined)
	}
}

// Property: ternary/comparison expressions compiled from text agree with
// direct Go evaluation over random arguments.
func TestPropertyExprSemantics(t *testing.T) {
	env := Env{Consts: map[string]int{}}
	results := []struct {
		src string
		fn  func(a, b, c int) int
	}{
		{"a + b * c", func(a, b, c int) int { return a + b*c }},
		{"(a - b) * (c + 1)", func(a, b, c int) int { return (a - b) * (c + 1) }},
		{"a < b ? a : b", func(a, b, c int) int {
			if a < b {
				return a
			}
			return b
		}},
		{"a == b || b == c ? 1 : 0", func(a, b, c int) int {
			if a == b || b == c {
				return 1
			}
			return 0
		}},
	}
	for _, r := range results {
		r := r
		f := func(a, b, c int8) bool {
			got := exprEval(t, r.src, env, int(a), int(b), int(c))
			return got == r.fn(int(a), int(b), int(c))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%q: %v", r.src, err)
		}
	}
}

func TestLenientMode(t *testing.T) {
	src := `
T(i)
  i = 0 .. unknown_const + 2
  WRITE D <- DATA mystery(i)
  ; unknown_fn(i)
BODY whatever
END
`
	g, err := Compile("lenient", src, Env{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	_, total := g.CountTasks()
	if total != 3 { // unknown_const -> 0, range 0..2
		t.Errorf("instances = %d, want 3", total)
	}
	// Strict mode must reject the same source.
	if _, err := Compile("strict", src, Env{}); err == nil {
		t.Error("strict mode accepted unknown names")
	}
}
