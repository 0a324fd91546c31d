package tree

import "fmt"

// RankedAlphabet assigns a fixed arity to each symbol of a ranked
// alphabet Σ = Σ_0 ∪ ... ∪ Σ_K (Section 2 of the paper). Symbols of
// rank 0 label leaves.
type RankedAlphabet map[string]int

// MaxRank returns K, the maximum rank in the alphabet.
func (ra RankedAlphabet) MaxRank() int {
	k := 0
	for _, r := range ra {
		if r > k {
			k = r
		}
	}
	return k
}

// Validate checks that t conforms to the ranked alphabet: every node's
// label is in the alphabet and has exactly as many children as its rank.
func (ra RankedAlphabet) Validate(t *Tree) error {
	for _, n := range t.View() {
		r, ok := ra[n.Label]
		if !ok {
			return fmt.Errorf("tree: label %q not in ranked alphabet", n.Label)
		}
		if len(n.Children) != r {
			return fmt.Errorf("tree: node %d labeled %q has %d children, rank is %d",
				n.ID, n.Label, len(n.Children), r)
		}
	}
	return nil
}

// ChildK returns the k-th child (1-based, as in the child_k relations
// of τ_rk) of n, or nil if n has fewer than k children.
func ChildK(n *Node, k int) *Node {
	if k < 1 || k > len(n.Children) {
		return nil
	}
	return n.Children[k-1]
}

// BinaryEncoding converts an unranked tree into its binary encoding:
// the firstchild pointer of τ_ur becomes child_1 and the nextsibling
// pointer becomes child_2 (Figure 1 of the paper). Nodes without a
// firstchild (resp. nextsibling) get a leaf labeled BottomLabel in
// that position, so the result is a full binary tree over the ranked
// alphabet {a ↦ 2 for a ∈ Σ} ∪ {BottomLabel ↦ 0}.
func BinaryEncoding(t *Tree) *Tree {
	var enc func(n *Node) *Node
	bot := func() *Node { return &Node{Label: BottomLabel} }
	enc = func(n *Node) *Node {
		m := &Node{Label: n.Label, Text: n.Text}
		if fc := n.FirstChild(); fc != nil {
			m.Add(enc(fc))
		} else {
			m.Add(bot())
		}
		if ns := n.NextSibling(); ns != nil {
			m.Add(enc(ns))
		} else {
			m.Add(bot())
		}
		return m
	}
	return NewTree(enc(t.View()[0]))
}

// BottomLabel is the reserved label of the padding leaves introduced
// by BinaryEncoding. It is assumed not to occur in source alphabets.
const BottomLabel = "#bot"

// DecodeBinary inverts BinaryEncoding: it reads a full binary tree in
// firstchild/nextsibling form and reconstructs the unranked original.
// It returns an error if the input is not a well-formed encoding (for
// example, if the root has a nextsibling).
func DecodeBinary(t *Tree) (*Tree, error) {
	root := t.View()[0]
	if root.Label == BottomLabel {
		return nil, fmt.Errorf("tree: encoding root is %s", BottomLabel)
	}
	if len(root.Children) != 2 {
		return nil, fmt.Errorf("tree: encoding nodes must have exactly 2 children")
	}
	if root.Children[1].Label != BottomLabel {
		return nil, fmt.Errorf("tree: encoding root has a nextsibling")
	}
	var dec func(n *Node) ([]*Node, error)
	// dec decodes n and its nextsibling chain into a sibling list.
	dec = func(n *Node) ([]*Node, error) {
		if n.Label == BottomLabel {
			if len(n.Children) != 0 {
				return nil, fmt.Errorf("tree: %s node has children", BottomLabel)
			}
			return nil, nil
		}
		if len(n.Children) != 2 {
			return nil, fmt.Errorf("tree: encoding node %q lacks 2 children", n.Label)
		}
		m := &Node{Label: n.Label, Text: n.Text}
		kids, err := dec(n.Children[0])
		if err != nil {
			return nil, err
		}
		m.Add(kids...)
		rest, err := dec(n.Children[1])
		if err != nil {
			return nil, err
		}
		return append([]*Node{m}, rest...), nil
	}
	list, err := dec(root)
	if err != nil {
		return nil, err
	}
	if len(list) != 1 {
		return nil, fmt.Errorf("tree: encoding decodes to %d roots", len(list))
	}
	return NewTree(list[0]), nil
}
