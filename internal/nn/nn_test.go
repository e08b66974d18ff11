package nn

import (
	"strings"
	"testing"

	"shortcutmining/internal/tensor"
)

func small() tensor.Shape { return tensor.Shape{C: 8, H: 16, W: 16} }

func TestBuilderLinearNetwork(t *testing.T) {
	b := NewBuilder("lin", small())
	x := b.Conv("c1", b.InputName(), 16, 3, 1, 1)
	x = b.Pool("p1", x, MaxPool, 2, 2, 0)
	x = b.Conv("c2", x, 32, 3, 1, 1)
	x = b.GlobalPool("gp", x)
	b.FC("fc", x, 10)
	n, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Layers) != 6 {
		t.Fatalf("got %d layers, want 6", len(n.Layers))
	}
	want := []tensor.Shape{
		{C: 8, H: 16, W: 16},
		{C: 16, H: 16, W: 16},
		{C: 16, H: 8, W: 8},
		{C: 32, H: 8, W: 8},
		{C: 32, H: 1, W: 1},
		{C: 10, H: 1, W: 1},
	}
	for i, l := range n.Layers {
		if l.Out != want[i] {
			t.Errorf("layer %s out = %v, want %v", l.Name, l.Out, want[i])
		}
		if l.Index != i {
			t.Errorf("layer %s index = %d, want %d", l.Name, l.Index, i)
		}
	}
}

func TestBuilderResidualShapes(t *testing.T) {
	b := NewBuilder("res", small())
	x := b.Conv("c1", b.InputName(), 8, 3, 1, 1)
	y := b.Conv("c2", x, 8, 3, 1, 1)
	y = b.Conv("c3", y, 8, 3, 1, 1)
	sum := b.Add("add", x, y)
	n, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Layer(sum).Out; got != (tensor.Shape{C: 8, H: 16, W: 16}) {
		t.Errorf("add out = %v", got)
	}
	if got := len(n.Layer(sum).In); got != 2 {
		t.Errorf("add arity = %d", got)
	}
}

func TestBuilderConcatShapes(t *testing.T) {
	b := NewBuilder("cat", small())
	a := b.Conv("a", b.InputName(), 4, 1, 1, 0)
	c := b.Conv("c", b.InputName(), 12, 1, 1, 0)
	cat := b.Concat("cat", a, c)
	n, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Layer(cat).Out; got != (tensor.Shape{C: 16, H: 16, W: 16}) {
		t.Errorf("concat out = %v", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *Builder)
		want  string
	}{
		{
			name:  "unknown input",
			build: func(b *Builder) { b.Conv("c", "ghost", 8, 3, 1, 1) },
			want:  "unknown layer",
		},
		{
			name: "duplicate name",
			build: func(b *Builder) {
				b.Conv("c", b.InputName(), 8, 3, 1, 1)
				b.Conv("c", b.InputName(), 8, 3, 1, 1)
			},
			want: "duplicate layer name",
		},
		{
			name:  "bad conv geometry",
			build: func(b *Builder) { b.Conv("c", b.InputName(), 8, 0, 1, 1) },
			want:  "bad conv geometry",
		},
		{
			name:  "bad pad",
			build: func(b *Builder) { b.Conv("c", b.InputName(), 8, 3, 1, -1) },
			want:  "bad conv geometry",
		},
		{
			name: "add shape mismatch",
			build: func(b *Builder) {
				a := b.Conv("a", b.InputName(), 8, 3, 1, 1)
				c := b.Conv("c", b.InputName(), 16, 3, 1, 1)
				b.Add("add", a, c)
			},
			want: "shape mismatch",
		},
		{
			name: "add single input",
			build: func(b *Builder) {
				a := b.Conv("a", b.InputName(), 8, 3, 1, 1)
				b.Add("add", a)
			},
			want: "at least two inputs",
		},
		{
			name: "concat spatial mismatch",
			build: func(b *Builder) {
				a := b.Conv("a", b.InputName(), 8, 3, 1, 1)
				c := b.Conv("c", b.InputName(), 8, 3, 2, 1)
				b.Concat("cat", a, c)
			},
			want: "spatial mismatch",
		},
		{
			name:  "empty name",
			build: func(b *Builder) { b.Conv("", b.InputName(), 8, 3, 1, 1) },
			want:  "empty name",
		},
		{
			name:  "window collapses output",
			build: func(b *Builder) { b.Pool("p", b.InputName(), MaxPool, 32, 1, 0) },
			want:  "invalid output shape",
		},
		{
			name:  "no layers",
			build: func(b *Builder) {},
			want:  "no layers",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder("bad", small())
			c.build(b)
			_, err := b.Finish()
			if err == nil {
				t.Fatalf("expected error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestBuilderFirstErrorWins(t *testing.T) {
	b := NewBuilder("bad", small())
	b.Conv("c", "ghost", 8, 3, 1, 1)       // first error
	b.Conv("c", b.InputName(), 0, 3, 1, 1) // would be a different error
	_, err := b.Finish()
	if err == nil || !strings.Contains(err.Error(), "unknown layer") {
		t.Fatalf("expected first error to be reported, got %v", err)
	}
}

func TestConsumersAndLastUse(t *testing.T) {
	b := NewBuilder("res", small())
	x := b.Conv("c1", b.InputName(), 8, 3, 1, 1) // index 1
	y := b.Conv("c2", x, 8, 3, 1, 1)             // index 2
	y = b.Conv("c3", y, 8, 3, 1, 1)              // index 3
	b.Add("add", x, y)                           // index 4
	n, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	got := n.Consumers(1)
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("Consumers(c1) = %v, want [2 4]", got)
	}
	if lu := n.LastUse(1); lu != 4 {
		t.Errorf("LastUse(c1) = %d, want 4", lu)
	}
	if lu := n.LastUse(4); lu != 4 {
		t.Errorf("LastUse(add) = %d, want 4 (self)", lu)
	}
}

func TestLayerMACs(t *testing.T) {
	b := NewBuilder("macs", tensor.Shape{C: 3, H: 8, W: 8})
	conv := b.Conv("c", b.InputName(), 16, 3, 1, 1)
	gp := b.GlobalPool("gp", conv)
	fc := b.FC("fc", gp, 10)
	n, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := n.Layer(conv).MACs(), int64(16*8*8*3*3*3); got != want {
		t.Errorf("conv MACs = %d, want %d", got, want)
	}
	if got, want := n.Layer(fc).MACs(), int64(16*10); got != want {
		t.Errorf("fc MACs = %d, want %d", got, want)
	}
	if got, want := n.TotalMACs(), int64(16*8*8*3*3*3+16*10); got != want {
		t.Errorf("TotalMACs = %d, want %d", got, want)
	}
}

func TestLayerWeightBytes(t *testing.T) {
	b := NewBuilder("w", tensor.Shape{C: 3, H: 8, W: 8})
	conv := b.Conv("c", b.InputName(), 16, 3, 1, 1)
	pool := b.Pool("p", conv, MaxPool, 2, 2, 0)
	n, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := n.Layer(conv).WeightBytes(tensor.Fixed16), int64(16*3*3*3*2); got != want {
		t.Errorf("conv weights = %d, want %d", got, want)
	}
	if got := n.Layer(pool).WeightBytes(tensor.Fixed16); got != 0 {
		t.Errorf("pool weights = %d, want 0", got)
	}
}

func TestValidateCatchesTampering(t *testing.T) {
	n := MustResNet(18)
	if err := n.Validate(); err != nil {
		t.Fatalf("fresh network invalid: %v", err)
	}
	// Corrupt the index of one layer.
	n.Layers[3].Index = 99
	if err := n.Validate(); err == nil {
		t.Error("Validate missed corrupted index")
	}
	n.Layers[3].Index = 3
	// Corrupt an input reference to point forward.
	saved := n.Layers[3].Inputs
	n.Layers[3].Inputs = []string{n.Layers[10].Name}
	n.Layers[3].In = []tensor.Shape{n.Layers[10].Out}
	if err := n.Validate(); err == nil {
		t.Error("Validate missed non-topological input")
	}
	n.Layers[3].Inputs = saved
}

func TestNames(t *testing.T) {
	n := MustResNet(18)
	names := n.Names()
	if len(names) != len(n.Layers) {
		t.Fatalf("Names length %d != %d", len(names), len(n.Layers))
	}
	if names[0] != "input" {
		t.Errorf("first name = %q", names[0])
	}
	seen := map[string]bool{}
	for _, nm := range names {
		if seen[nm] {
			t.Errorf("duplicate name %q", nm)
		}
		seen[nm] = true
	}
}

func TestOpKindStrings(t *testing.T) {
	kinds := map[OpKind]string{
		OpInput: "input", OpConv: "conv", OpPool: "pool",
		OpGlobalPool: "gpool", OpFC: "fc", OpEltwiseAdd: "add", OpConcat: "concat",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if MaxPool.String() != "max" || AvgPool.String() != "avg" {
		t.Error("PoolKind strings wrong")
	}
}
