package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestAblationInputBreadth(t *testing.T) {
	pts := AblationInputBreadth(tinyOpt())
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// Entropy delivered to the channel/bank bits must grow with input
	// breadth (the Section IV Broad-vs-PM argument).
	for i := 1; i < len(pts); i++ {
		if pts[i].MinCB+1e-9 < pts[i-1].MinCB-0.15 {
			t.Errorf("entropy regressed sharply with breadth: %s %.2f -> %s %.2f",
				pts[i-1].Name, pts[i-1].MinCB, pts[i].Name, pts[i].MinCB)
		}
	}
	narrow, full := pts[0], pts[len(pts)-1]
	if full.MinCB <= narrow.MinCB {
		t.Errorf("full-address inputs (%.2f) should deliver more entropy than 2 row bits (%.2f)",
			full.MinCB, narrow.MinCB)
	}
	if full.Speedup <= narrow.Speedup {
		t.Errorf("full-address inputs (%.2fx) should outperform narrow (%.2fx)",
			full.Speedup, narrow.Speedup)
	}
	if narrow.Speedup < 1.0 {
		t.Errorf("even narrow inputs should not slow down: %.2fx", narrow.Speedup)
	}
}

func TestAblationWindowSize(t *testing.T) {
	pts := AblationWindowSize(tinyOpt(), []int{1, 4, 12, 48})
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// Section III-A: larger windows expose at least as much entropy;
	// w=1 sees only intra-TB BVR diversity (none, by definition of a
	// single-value window).
	if pts[0].MeanAll > pts[2].MeanAll {
		t.Errorf("w=1 entropy %.3f should not exceed w=12 entropy %.3f",
			pts[0].MeanAll, pts[2].MeanAll)
	}
	if pts[0].MeanAll != 0 {
		t.Errorf("w=1 windows hold a single BVR; entropy must be 0, got %.3f", pts[0].MeanAll)
	}
	for _, pt := range pts {
		if pt.MeanChBank < 0 || pt.MeanChBank > 1 || pt.MeanAll < 0 || pt.MeanAll > 1 {
			t.Errorf("w=%d: entropy out of range: %+v", pt.Window, pt)
		}
	}
}

func TestAblationRenderers(t *testing.T) {
	var b bytes.Buffer
	tinyOutputs()["ablation"].Render(&b)
	out := b.String()
	if !strings.Contains(out, "input-bit breadth") || !strings.Contains(out, "window size") {
		t.Error("ablation renderers missing headers")
	}
	if strings.Contains(out, "NaN") {
		t.Error("NaN in ablation output")
	}
}
