package nn

// Layer is one node of a Network; its fields are written here, by the
// package that builds networks, and nowhere else.
type Layer struct {
	Name   string
	Inputs []string
	K      int
}

// Add appends a layer: writes inside the defining package are how
// it builds networks, not findings.
func (n *Network) Add(l *Layer) {
	l.K++
	n.Layers = append(n.Layers, l)
	n.Layers[0].Name = "input"
}
