package tensor

import "fmt"

// Param is a trainable parameter: a value matrix plus an accumulated
// gradient. Params persist across forward passes; optimizers consume
// Grad and zero it between steps.
type Param struct {
	Name  string
	Value *Matrix
	Grad  *Matrix
}

// NewParam wraps value as a named trainable parameter.
func NewParam(name string, value *Matrix) *Param {
	return &Param{Name: name, Value: value, Grad: NewMatrix(value.Rows, value.Cols)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Node is one vertex in the computation graph recorded on a Tape.
// Value holds the forward result; Grad is allocated lazily during the
// backward pass; back propagates Grad into the node's inputs.
type Node struct {
	Value *Matrix
	Grad  *Matrix

	tape         *Tape
	requiresGrad bool
	back         func()
}

// Tape records operations of one forward pass so they can be replayed in
// reverse for backpropagation. A Tape is single-goroutine; build a fresh
// Tape per training step.
type Tape struct {
	nodes []*Node
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// node registers a new graph vertex on the tape.
func (t *Tape) node(v *Matrix, requiresGrad bool, back func()) *Node {
	n := &Node{Value: v, tape: t, requiresGrad: requiresGrad, back: back}
	t.nodes = append(t.nodes, n)
	return n
}

// Const wraps a matrix as a non-differentiable leaf.
func (t *Tape) Const(m *Matrix) *Node { return t.node(m, false, nil) }

// Param wraps a trainable parameter; gradients accumulate into p.Grad.
func (t *Tape) Param(p *Param) *Node {
	n := t.node(p.Value, true, nil)
	n.back = func() {
		for i, g := range n.Grad.Data {
			p.Grad.Data[i] += g
		}
	}
	return n
}

// ensureGrad allocates n.Grad if needed.
func ensureGrad(n *Node) {
	if n.Grad == nil {
		n.Grad = NewMatrix(n.Value.Rows, n.Value.Cols)
	}
}

// Backward seeds the gradient of root with ones and propagates through
// the tape in reverse registration order. root is normally a 1x1 loss.
func (t *Tape) Backward(root *Node) {
	if root.tape != t {
		panic("tensor: Backward root from different tape")
	}
	ensureGrad(root)
	root.Grad.Fill(1)
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.Grad == nil || n.back == nil || !n.requiresGrad {
			continue
		}
		n.back()
	}
}

func checkSameTape(t *Tape, ns ...*Node) {
	for _, n := range ns {
		if n.tape != t {
			panic("tensor: node from different tape")
		}
	}
}

func checkShape(cond bool, format string, args ...any) {
	if !cond {
		panic("tensor: " + fmt.Sprintf(format, args...))
	}
}
