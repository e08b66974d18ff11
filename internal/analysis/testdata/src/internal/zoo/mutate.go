// Package zoo is immutable-check corpus: it edits built networks every
// way the check forbids, and reads them every way it allows.
package zoo

import "example.com/vetcorpus/internal/nn"

// Rename writes fields of a built network and its layers.
func Rename(n *nn.Network, extra *nn.Layer) {
	n.Name = "renamed"                                  // want `\[immutable\] write to internal/nn\.Network\.Name outside internal/nn`
	n.Layers[0].Name += "-v2"                           // want `\[immutable\] write to internal/nn\.Layer\.Name outside internal/nn`
	n.Layers[1].Inputs[0] = "input"                     // want `\[immutable\] write to internal/nn\.Layer\.Inputs outside internal/nn`
	n.Layers[1].K++                                     // want `\[immutable\] write to internal/nn\.Layer\.K outside internal/nn`
	n.Layers = append(n.Layers, extra)                  // want `\[immutable\] write to internal/nn\.Network\.Layers outside internal/nn`
	n.Layers[0], n.Layers[1] = n.Layers[1], n.Layers[0] // want `\[immutable\] write to internal/nn\.Network\.Layers outside internal/nn` `\[immutable\] write to internal/nn\.Network\.Layers outside internal/nn`
}

// Alias writes into a field's backing array without assigning the
// field.
func Alias(n *nn.Network, extra *nn.Layer) []*nn.Layer {
	head := append(n.Layers[:1], extra)     // want `\[immutable\] append into internal/nn\.Network\.Layers outside internal/nn`
	copy(n.Layers[0].Inputs, []string{"x"}) // want `\[immutable\] copy into internal/nn\.Layer\.Inputs outside internal/nn`
	clear(n.Layers[1].Inputs)               // want `\[immutable\] clear into internal/nn\.Layer\.Inputs outside internal/nn`
	return head
}

// Copy writes a field of a value copy: still a finding, because the
// copy's slices share the network's backing arrays.
func Copy(n *nn.Network) nn.Layer {
	l := *n.Layers[0]
	l.K = 3 // want `\[immutable\] write to internal/nn\.Layer\.K outside internal/nn`
	return l
}

// Read only reads; a local alias of a field is not seen (the check
// under-approximates), and building through the owning package is the
// sanctioned path.
func Read(n *nn.Network) (string, int) {
	name := n.Name
	k := 0
	for _, l := range n.Layers {
		k += l.K
	}
	layers := n.Layers
	layers[0] = nil
	n.Add(&nn.Layer{Name: "fresh"})
	return name, k
}
