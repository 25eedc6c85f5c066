// Package nn is a from-scratch CNN inference engine: the substrate the
// paper runs on top of (the paper used Caffe+cuDNN; see DESIGN.md for the
// substitution). It provides the layers modern CNNs are built from and a
// DAG graph executor able to express GoogLeNet-style inception topologies.
package nn

import (
	"fmt"

	"snapea/internal/tensor"
)

// Layer computes one graph node's output from its inputs. Layers are
// stateless with respect to Forward: calling Forward concurrently on
// different inputs is safe as long as the layer's parameters are not
// mutated.
type Layer interface {
	// Forward computes the layer output. Most layers take exactly one
	// input; Concat takes several.
	Forward(ins []*tensor.Tensor) *tensor.Tensor
	// OutShape reports the output shape for the given input shapes
	// without computing anything.
	OutShape(ins []tensor.Shape) tensor.Shape
}

// InputName is the reserved node name that refers to the graph input.
const InputName = "input"

// Node binds a layer into a graph with a unique name and named inputs.
type Node struct {
	Name   string
	Layer  Layer
	Inputs []string
}

// Graph is a directed acyclic network of layers. Nodes must be added in
// topological order (every input is either InputName or a previously
// added node); builders naturally do this. The zero value is not usable;
// construct with NewGraph.
type Graph struct {
	nodes  []*Node
	byName map[string]*Node
	output string
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{byName: make(map[string]*Node)}
}

// Add appends a node. It panics on duplicate names or unknown inputs,
// which are programming errors in a model builder.
func (g *Graph) Add(name string, layer Layer, inputs ...string) {
	if name == InputName {
		panic("nn: node name 'input' is reserved")
	}
	if _, dup := g.byName[name]; dup {
		panic(fmt.Sprintf("nn: duplicate node %q", name))
	}
	if len(inputs) == 0 {
		panic(fmt.Sprintf("nn: node %q has no inputs", name))
	}
	for _, in := range inputs {
		if in == InputName {
			continue
		}
		if _, ok := g.byName[in]; !ok {
			panic(fmt.Sprintf("nn: node %q references unknown input %q (add nodes in topological order)", name, in))
		}
	}
	n := &Node{Name: name, Layer: layer, Inputs: inputs}
	g.nodes = append(g.nodes, n)
	g.byName[name] = n
	g.output = name // last added node is the default output
}

// SetOutput overrides which node's result Forward returns.
func (g *Graph) SetOutput(name string) {
	if _, ok := g.byName[name]; !ok {
		panic(fmt.Sprintf("nn: unknown output node %q", name))
	}
	g.output = name
}

// Output returns the name of the output node.
func (g *Graph) Output() string { return g.output }

// Nodes returns the nodes in topological order. The slice is shared; do
// not mutate it.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Node returns the named node, or nil.
func (g *Graph) Node(name string) *Node { return g.byName[name] }

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Forward runs the whole graph on in and returns the output node's value.
func (g *Graph) Forward(in *tensor.Tensor) *tensor.Tensor {
	return g.ForwardTap(in, nil)
}

// ForwardTap runs the graph, invoking tap (if non-nil) with every node's
// output as it is produced. The tap must not mutate the tensor, which is
// shared with downstream nodes.
func (g *Graph) ForwardTap(in *tensor.Tensor, tap func(node string, out *tensor.Tensor)) *tensor.Tensor {
	return g.ForwardExec(in, tap, nil)
}

// Exec lets a caller substitute the execution of individual nodes; the
// SnaPEA engine uses this to run convolution layers with early
// termination while leaving the rest of the network untouched. Returning
// (nil, false) means "use the layer's own Forward".
type Exec func(node *Node, ins []*tensor.Tensor) (*tensor.Tensor, bool)

// ForwardExec runs the graph with an optional per-node executor override
// and an optional output tap.
func (g *Graph) ForwardExec(in *tensor.Tensor, tap func(node string, out *tensor.Tensor), exec Exec) *tensor.Tensor {
	vals := make(map[string]*tensor.Tensor, len(g.nodes)+1)
	vals[InputName] = in
	ins := make([]*tensor.Tensor, 0, 4)
	for _, n := range g.nodes {
		ins = ins[:0]
		for _, name := range n.Inputs {
			v, ok := vals[name]
			if !ok {
				panic(fmt.Sprintf("nn: node %q input %q not computed", n.Name, name))
			}
			ins = append(ins, v)
		}
		var out *tensor.Tensor
		done := false
		if exec != nil {
			out, done = exec(n, ins)
		}
		if !done {
			out = n.Layer.Forward(ins)
		}
		vals[n.Name] = out
		if tap != nil {
			tap(n.Name, out)
		}
	}
	return vals[g.output]
}

// OutShape propagates an input shape through the graph and returns the
// output node's shape.
func (g *Graph) OutShape(in tensor.Shape) tensor.Shape {
	shapes := map[string]tensor.Shape{InputName: in}
	var last tensor.Shape
	for _, n := range g.nodes {
		ins := make([]tensor.Shape, len(n.Inputs))
		for i, name := range n.Inputs {
			ins[i] = shapes[name]
		}
		shapes[n.Name] = n.Layer.OutShape(ins)
		last = shapes[n.Name]
	}
	_ = last
	return shapes[g.output]
}

func one(ins []*tensor.Tensor) *tensor.Tensor {
	if len(ins) != 1 {
		panic(fmt.Sprintf("nn: layer expects 1 input, got %d", len(ins)))
	}
	return ins[0]
}

func oneShape(ins []tensor.Shape) tensor.Shape {
	if len(ins) != 1 {
		panic(fmt.Sprintf("nn: layer expects 1 input, got %d", len(ins)))
	}
	return ins[0]
}
