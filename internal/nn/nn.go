// Package nn defines the network intermediate representation consumed
// by the accelerator schedulers: a topologically ordered graph of
// layers with inferred shapes, plus the analyses the Shortcut Mining
// controller needs (shortcut edges, feature-map liveness, MAC counts).
//
// The IR is deliberately architecture-oriented rather than
// training-oriented: batch normalization and activation functions are
// assumed fused into the producing convolution (as every accelerator in
// the paper's comparison class does), so they do not appear as nodes.
package nn

import (
	"fmt"

	"shortcutmining/internal/tensor"
)

// OpKind identifies the operator a layer performs.
type OpKind int

const (
	// OpInput is the network input pseudo-layer; it "produces" the
	// image feature map that the first real layer consumes.
	OpInput OpKind = iota
	// OpConv is a 2-D convolution with fused BN/activation.
	OpConv
	// OpPool is a spatial max or average pooling window.
	OpPool
	// OpGlobalPool is global average pooling to 1x1.
	OpGlobalPool
	// OpFC is a fully connected (inner product) layer.
	OpFC
	// OpEltwiseAdd is the element-wise addition that terminates a
	// residual shortcut.
	OpEltwiseAdd
	// OpConcat concatenates inputs along the channel dimension.
	OpConcat
	// OpShuffle permutes channels across groups (the ShuffleNet
	// channel shuffle): a data-movement layer with no weights.
	OpShuffle
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpInput:
		return "input"
	case OpConv:
		return "conv"
	case OpPool:
		return "pool"
	case OpGlobalPool:
		return "gpool"
	case OpFC:
		return "fc"
	case OpEltwiseAdd:
		return "add"
	case OpConcat:
		return "concat"
	case OpShuffle:
		return "shuffle"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// PoolKind distinguishes pooling flavours.
type PoolKind int

const (
	// MaxPool takes the window maximum.
	MaxPool PoolKind = iota
	// AvgPool takes the window mean.
	AvgPool
)

// String implements fmt.Stringer.
func (p PoolKind) String() string {
	if p == AvgPool {
		return "avg"
	}
	return "max"
}

// Layer is one node of the network graph. Fields beyond the geometry
// (Index, In, Out) are filled in by the Builder during shape
// inference. Like its Network, a Layer is immutable once
// Builder.Finish returns.
type Layer struct {
	Name   string
	Kind   OpKind
	Inputs []string // producer layer names, primary input last-produced
	Stage  string   // reporting label ("stem", "layer2", "fire4", ...)

	// Convolution / pooling geometry. K is the window edge; OutC the
	// number of output channels for conv/fc. Groups partitions a
	// convolution's channels (1 = dense, InC = depthwise); it divides
	// both the MAC count and the weight footprint.
	K      int
	Stride int
	Pad    int
	OutC   int
	Groups int
	Pool   PoolKind

	// Inferred by Finish.
	Index int            // position in topological order
	In    []tensor.Shape // one per entry of Inputs
	Out   tensor.Shape
}

// NumGroups returns the effective convolution group count (Groups
// defaults to 1; a value equal to the input channel count makes the
// layer depthwise).
func (l *Layer) NumGroups() int {
	if l.Groups <= 1 {
		return 1
	}
	return l.Groups
}

func (l *Layer) groups() int { return l.NumGroups() }

// MACs returns the number of multiply-accumulate operations the layer
// performs. Pooling and element-wise layers report their element
// operation count so the timing model can account (cheaply) for them.
func (l *Layer) MACs() int64 {
	switch l.Kind {
	case OpConv:
		return int64(l.Out.Elems()) * int64(l.In[0].C/l.groups()) * int64(l.K) * int64(l.K)
	case OpFC:
		return int64(l.In[0].Elems()) * int64(l.OutC)
	case OpPool:
		return int64(l.Out.Elems()) * int64(l.K) * int64(l.K)
	case OpGlobalPool:
		return int64(l.In[0].Elems())
	case OpEltwiseAdd:
		return int64(l.Out.Elems()) * int64(len(l.In)-1)
	case OpConcat:
		return int64(l.Out.Elems())
	case OpShuffle:
		return int64(l.Out.Elems())
	}
	return 0
}

// WeightBytes returns the parameter footprint of the layer at dtype d.
func (l *Layer) WeightBytes(d tensor.DataType) int64 {
	switch l.Kind {
	case OpConv:
		return int64(l.OutC) * int64(l.In[0].C/l.groups()) * int64(l.K*l.K) * int64(d.Bytes())
	case OpFC:
		return int64(l.OutC) * int64(l.In[0].Elems()) * int64(d.Bytes())
	}
	return 0
}

// Network is a validated, shape-inferred layer graph in topological
// order. Construct one with Builder; a zero Network is not usable.
//
// A Network is immutable once Builder.Finish returns it: Finish
// computes its consumption plan (Plan) from the graph, and every run
// reads that plan instead of rebuilding it, so a network may be shared
// by any number of concurrent runs. No code outside this package may
// write a field of a Network or of one of its Layers (scm-vet's
// immutable check enforces it); derive a changed graph by building a
// new network.
type Network struct {
	Name       string
	InputShape tensor.Shape
	Layers     []*Layer

	byName map[string]*Layer
	plan   Plan
}

// Layer returns the layer with the given name, or nil.
func (n *Network) Layer(name string) *Layer {
	return n.byName[name]
}

// Input returns the input pseudo-layer.
func (n *Network) Input() *Layer { return n.Layers[0] }

// Output returns the final layer in topological order.
func (n *Network) Output() *Layer { return n.Layers[len(n.Layers)-1] }

// Consumers returns the indices of layers that consume the output of
// the layer at index i, in ascending order.
func (n *Network) Consumers(i int) []int {
	name := n.Layers[i].Name
	var out []int
	for j := i + 1; j < len(n.Layers); j++ {
		for _, in := range n.Layers[j].Inputs {
			if in == name {
				out = append(out, j)
				break
			}
		}
	}
	return out
}

// LastUse returns the index of the last consumer of layer i's output,
// or i itself when nothing consumes it (the network output).
func (n *Network) LastUse(i int) int {
	last := i
	if c := n.Consumers(i); len(c) > 0 {
		last = c[len(c)-1]
	}
	return last
}

// TotalMACs sums MACs over conv and FC layers (the convention used for
// GOPS reporting; cheap element-wise work is excluded).
func (n *Network) TotalMACs() int64 {
	var total int64
	for _, l := range n.Layers {
		if l.Kind == OpConv || l.Kind == OpFC {
			total += l.MACs()
		}
	}
	return total
}

// TotalWeightBytes sums parameter footprints at dtype d.
func (n *Network) TotalWeightBytes(d tensor.DataType) int64 {
	var total int64
	for _, l := range n.Layers {
		total += l.WeightBytes(d)
	}
	return total
}

// Validate re-checks structural invariants; Builder.Finish always
// leaves the network valid, so this is primarily a test hook and a
// guard for hand-assembled networks.
func (n *Network) Validate() error {
	if len(n.Layers) == 0 {
		return fmt.Errorf("nn: %s: empty network", n.Name)
	}
	if n.Layers[0].Kind != OpInput {
		return fmt.Errorf("nn: %s: first layer must be the input", n.Name)
	}
	seen := make(map[string]int, len(n.Layers))
	for i, l := range n.Layers {
		if l.Index != i {
			return fmt.Errorf("nn: %s: layer %q has index %d at position %d", n.Name, l.Name, l.Index, i)
		}
		if _, dup := seen[l.Name]; dup {
			return fmt.Errorf("nn: %s: duplicate layer name %q", n.Name, l.Name)
		}
		seen[l.Name] = i
		if !l.Out.Valid() {
			return fmt.Errorf("nn: %s: layer %q has invalid output shape %v", n.Name, l.Name, l.Out)
		}
		if i == 0 {
			if len(l.Inputs) != 0 {
				return fmt.Errorf("nn: %s: input layer cannot have inputs", n.Name)
			}
			continue
		}
		if len(l.Inputs) == 0 {
			return fmt.Errorf("nn: %s: layer %q has no inputs", n.Name, l.Name)
		}
		if len(l.Inputs) != len(l.In) {
			return fmt.Errorf("nn: %s: layer %q input arity mismatch", n.Name, l.Name)
		}
		for _, in := range l.Inputs {
			j, ok := seen[in]
			if !ok {
				return fmt.Errorf("nn: %s: layer %q consumes unknown or later layer %q", n.Name, l.Name, in)
			}
			if j >= i {
				return fmt.Errorf("nn: %s: layer %q consumes non-topological input %q", n.Name, l.Name, in)
			}
		}
	}
	return nil
}

// Builder assembles a Network layer by layer in execution order. Each
// Add* method returns the new layer's name so graphs read naturally:
//
//	b := nn.NewBuilder("net", tensor.Shape{C: 3, H: 224, W: 224})
//	x := b.Conv("conv1", b.InputName(), 64, 7, 2, 3)
//	x = b.Pool("pool1", x, nn.MaxPool, 3, 2, 1)
//
// Errors are accumulated and reported by Finish, keeping call sites
// free of per-layer error plumbing.
type Builder struct {
	net   *Network
	stage string
	err   error
}

// NewBuilder starts a network with the given name and input shape.
func NewBuilder(name string, input tensor.Shape) *Builder {
	n := &Network{
		Name:       name,
		InputShape: input,
		byName:     make(map[string]*Layer),
	}
	b := &Builder{net: n}
	b.add(&Layer{Name: "input", Kind: OpInput, Out: input})
	return b
}

// InputName returns the name of the input pseudo-layer.
func (b *Builder) InputName() string { return "input" }

// SetStage labels subsequent layers with a reporting stage.
func (b *Builder) SetStage(stage string) { b.stage = stage }

func (b *Builder) fail(format string, args ...any) string {
	if b.err == nil {
		b.err = fmt.Errorf("nn: %s: "+format, append([]any{b.net.Name}, args...)...)
	}
	return ""
}

func (b *Builder) add(l *Layer) string {
	if b.err != nil {
		return ""
	}
	if l.Name == "" {
		return b.fail("layer with empty name")
	}
	if _, dup := b.net.byName[l.Name]; dup {
		return b.fail("duplicate layer name %q", l.Name)
	}
	l.Index = len(b.net.Layers)
	l.Stage = b.stage
	if l.Kind == OpInput {
		l.Stage = ""
	}
	for _, in := range l.Inputs {
		p, ok := b.net.byName[in]
		if !ok {
			return b.fail("layer %q consumes unknown layer %q", l.Name, in)
		}
		l.In = append(l.In, p.Out)
	}
	if err := inferShape(l); err != nil {
		return b.fail("%v", err)
	}
	b.net.Layers = append(b.net.Layers, l)
	b.net.byName[l.Name] = l
	return l.Name
}

func inferShape(l *Layer) error {
	switch l.Kind {
	case OpInput:
		if !l.Out.Valid() {
			return fmt.Errorf("input shape %v invalid", l.Out)
		}
		return nil
	case OpConv:
		if l.K <= 0 || l.Stride <= 0 || l.Pad < 0 || l.OutC <= 0 {
			return fmt.Errorf("layer %q: bad conv geometry k=%d s=%d p=%d outc=%d", l.Name, l.K, l.Stride, l.Pad, l.OutC)
		}
		in := l.In[0]
		if g := l.groups(); in.C%g != 0 || l.OutC%g != 0 {
			return fmt.Errorf("layer %q: groups %d does not divide channels %d→%d", l.Name, g, in.C, l.OutC)
		}
		l.Out = tensor.Shape{
			C: l.OutC,
			H: tensor.ConvOut(in.H, l.K, l.Stride, l.Pad),
			W: tensor.ConvOut(in.W, l.K, l.Stride, l.Pad),
		}
	case OpPool:
		if l.K <= 0 || l.Stride <= 0 || l.Pad < 0 {
			return fmt.Errorf("layer %q: bad pool geometry", l.Name)
		}
		in := l.In[0]
		l.Out = tensor.Shape{
			C: in.C,
			H: tensor.ConvOut(in.H, l.K, l.Stride, l.Pad),
			W: tensor.ConvOut(in.W, l.K, l.Stride, l.Pad),
		}
	case OpGlobalPool:
		l.Out = tensor.Shape{C: l.In[0].C, H: 1, W: 1}
	case OpFC:
		if l.OutC <= 0 {
			return fmt.Errorf("layer %q: fc needs positive OutC", l.Name)
		}
		l.Out = tensor.Shape{C: l.OutC, H: 1, W: 1}
	case OpEltwiseAdd:
		if len(l.In) < 2 {
			return fmt.Errorf("layer %q: add needs at least two inputs", l.Name)
		}
		for _, s := range l.In[1:] {
			if s != l.In[0] {
				return fmt.Errorf("layer %q: add shape mismatch %v vs %v", l.Name, l.In[0], s)
			}
		}
		l.Out = l.In[0]
	case OpShuffle:
		if l.Groups < 2 || l.In[0].C%l.Groups != 0 {
			return fmt.Errorf("layer %q: shuffle groups %d must divide channels %d", l.Name, l.Groups, l.In[0].C)
		}
		l.Out = l.In[0]
	case OpConcat:
		if len(l.In) < 2 {
			return fmt.Errorf("layer %q: concat needs at least two inputs", l.Name)
		}
		c := 0
		for _, s := range l.In {
			if s.H != l.In[0].H || s.W != l.In[0].W {
				return fmt.Errorf("layer %q: concat spatial mismatch %v vs %v", l.Name, l.In[0], s)
			}
			c += s.C
		}
		l.Out = tensor.Shape{C: c, H: l.In[0].H, W: l.In[0].W}
	default:
		return fmt.Errorf("layer %q: unknown op kind %v", l.Name, l.Kind)
	}
	if !l.Out.Valid() {
		return fmt.Errorf("layer %q: inferred invalid output shape %v", l.Name, l.Out)
	}
	return nil
}

// Conv appends a dense convolution layer and returns its name.
func (b *Builder) Conv(name, input string, outC, k, stride, pad int) string {
	return b.add(&Layer{Name: name, Kind: OpConv, Inputs: []string{input}, OutC: outC, K: k, Stride: stride, Pad: pad})
}

// GroupedConv appends a grouped convolution (groups = input channels
// gives a depthwise convolution, the MobileNet building block).
func (b *Builder) GroupedConv(name, input string, outC, k, stride, pad, groups int) string {
	return b.add(&Layer{Name: name, Kind: OpConv, Inputs: []string{input}, OutC: outC, K: k, Stride: stride, Pad: pad, Groups: groups})
}

// Pool appends a pooling layer and returns its name.
func (b *Builder) Pool(name, input string, kind PoolKind, k, stride, pad int) string {
	return b.add(&Layer{Name: name, Kind: OpPool, Inputs: []string{input}, Pool: kind, K: k, Stride: stride, Pad: pad})
}

// GlobalPool appends a global average pooling layer.
func (b *Builder) GlobalPool(name, input string) string {
	return b.add(&Layer{Name: name, Kind: OpGlobalPool, Inputs: []string{input}})
}

// FC appends a fully connected layer.
func (b *Builder) FC(name, input string, outC int) string {
	return b.add(&Layer{Name: name, Kind: OpFC, Inputs: []string{input}, OutC: outC})
}

// Add appends an element-wise addition. The primary operand (the one
// produced immediately before in the execution order) should be listed
// last by convention, matching how the fused-add datapath consumes it.
func (b *Builder) Add(name string, inputs ...string) string {
	return b.add(&Layer{Name: name, Kind: OpEltwiseAdd, Inputs: inputs})
}

// Shuffle appends a channel shuffle across the given group count.
func (b *Builder) Shuffle(name, input string, groups int) string {
	return b.add(&Layer{Name: name, Kind: OpShuffle, Inputs: []string{input}, Groups: groups})
}

// Concat appends a channel concatenation.
func (b *Builder) Concat(name string, inputs ...string) string {
	return b.add(&Layer{Name: name, Kind: OpConcat, Inputs: inputs})
}

// Finish validates the network, computes its consumption plan, and
// returns it. The builder must not be used afterwards.
func (b *Builder) Finish() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.net.Layers) < 2 {
		return nil, fmt.Errorf("nn: %s: network has no layers beyond the input", b.net.Name)
	}
	if err := b.net.Validate(); err != nil {
		return nil, err
	}
	p, err := buildPlan(b.net)
	if err != nil {
		return nil, err
	}
	b.net.plan = p
	return b.net, nil
}

// MustFinish is Finish for the static model zoo, where construction
// errors are programming bugs.
func (b *Builder) MustFinish() *Network {
	n, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return n
}

// Names returns all layer names in topological order (useful for
// deterministic iteration in tests and tools).
func (n *Network) Names() []string {
	out := make([]string, len(n.Layers))
	for i, l := range n.Layers {
		out[i] = l.Name
	}
	return out
}
