// Package nn is nopanic-check and immutable-check corpus.
package nn

import "errors"

// Network is a stand-in result type, immutable outside this package.
type Network struct {
	Name   string
	Layers []*Layer
}

// Build returns an error like library code should.
func Build(name string) (*Network, error) {
	if name == "" {
		return nil, errors.New("nn: empty name")
	}
	return &Network{Name: name}, nil
}

// MustBuild is a checked wrapper; panicking here is the documented
// convention and not a finding.
func MustBuild(name string) *Network {
	n, err := Build(name)
	if err != nil {
		panic(err)
	}
	return n
}

// Validate panics instead of returning an error.
func Validate(n *Network) {
	if n == nil {
		panic("nn: nil network") // want `\[nopanic\] library code must return an error instead of panicking`
	}
}

// FromLibrary calls a Must wrapper outside cmd/ and tests.
func FromLibrary() *Network {
	return MustBuild("resnet") // want `\[nopanic\] MustBuild may panic; library code must use the error-returning variant`
}

// Invariant shows the suppression escape hatch for true invariants.
func Invariant(ok bool) {
	if !ok {
		// scmvet:ok nopanic corpus invariant, unreachable by construction
		panic("nn: broken invariant")
	}
}
