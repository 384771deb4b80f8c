package nn

import (
	"fmt"

	"tinymlops/internal/tensor"
)

// Subnet returns a view over layers [lo,hi) of the network: the returned
// Network shares the receiver's layer objects (weights included — no copy),
// with its InputShape the planned shape entering layer lo. It is the
// execution form of a partitioned model: Subnet(0, cut) is the device
// prefix and Subnet(cut, len) is the cloud suffix, and because the layers
// are shared, running both in sequence performs exactly the floating-point
// operations Forward would.
func (n *Network) Subnet(lo, hi int) (*Network, error) {
	if lo < 0 || hi > len(n.layers) || lo > hi {
		return nil, fmt.Errorf("nn: subnet [%d,%d) out of range [0,%d]", lo, hi, len(n.layers))
	}
	in := n.InputShape
	if lo > 0 {
		in = n.plan[lo-1].Info.OutShape
	}
	return Assemble(in, n.layers[lo:hi])
}

// ForwardPrefix runs layers [0,cut) on x in inference mode and returns the
// boundary activation — the tensor an edge–cloud split ships over the
// network. cut = 0 returns x unchanged; cut = len(layers) computes the full
// forward pass. The result is bit-identical to stopping Forward(x, false)
// after cut layers, so running Subnet(c, len) on ForwardPrefix(x, c)
// reproduces the monolithic output exactly for any c.
func (n *Network) ForwardPrefix(x *tensor.Tensor, cut int) (*tensor.Tensor, error) {
	if cut < 0 || cut > len(n.layers) {
		return nil, fmt.Errorf("nn: cut %d out of range [0,%d]", cut, len(n.layers))
	}
	n.enter(x)
	for _, l := range n.layers[:cut] {
		x = l.Forward(x, false)
	}
	return x, nil
}
