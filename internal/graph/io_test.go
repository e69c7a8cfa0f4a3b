package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteEdgeList(t *testing.T) {
	g := FromEdges(6, []Edge{{0, 1}, {2, 3}, {4, 5}, {0, 5}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	want := "# nodes=6 edges=4\n0 1\n0 5\n2 3\n4 5\n"
	if buf.String() != want {
		t.Fatalf("WriteEdgeList = %q, want %q", buf.String(), want)
	}
}

func TestWriteDOT(t *testing.T) {
	g := FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, []int{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph pgb {", "n0 -- n1", "n1 -- n2", "fillcolor"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDOTNilLabels(t *testing.T) {
	g := FromEdges(2, []Edge{{U: 0, V: 1}})
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "n0 -- n1") {
		t.Fatal("edge missing")
	}
}
