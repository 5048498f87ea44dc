package drl

import (
	"fmt"
	"math"
	"math/rand"

	"mlcr/internal/nn"
)

// QConfig sizes the policy network. Every field must be set: the caller
// (mlcr.Config) owns the defaults. The paper's reference configuration
// uses an embedding of 512 and two attention heads.
type QConfig struct {
	// Tokens and Width describe the input state (from the Featurizer).
	Tokens, Width int
	// Actions is the output dimension (slots + 1).
	Actions int
	// Dim is the embedding/model width.
	Dim int
	// Heads is the number of attention heads.
	Heads int
	// Hidden is the width of the penultimate linear layer.
	Hidden int
}

// QNetwork is the paper's policy network (Figure 7): the normalized state
// tokens pass through a shared embedding layer, two multi-head attention
// layers learn relationships between the function, cluster and container
// tokens, and two linear layers map the flattened representation to one
// Q-value per action. Action masking is applied outside the network.
type QNetwork struct {
	cfg QConfig
	net nn.Layer
}

// NewQNetwork builds a Q-network with deterministic initialization from
// rng.
func NewQNetwork(cfg QConfig, rng *rand.Rand) *QNetwork {
	if cfg.Tokens <= 0 || cfg.Width <= 0 || cfg.Actions <= 0 || cfg.Dim <= 0 || cfg.Heads <= 0 || cfg.Hidden <= 0 {
		panic(fmt.Sprintf("drl: QConfig fields must all be positive: %+v", cfg))
	}
	return &QNetwork{
		cfg: cfg,
		net: &nn.Sequential{Layers: []nn.Layer{
			nn.NewLinear("embed", cfg.Width, cfg.Dim, rng),
			nn.NewLayerNorm("ln1", cfg.Dim),
			nn.NewMultiHeadAttention("attn1", cfg.Dim, cfg.Heads, rng),
			nn.NewLayerNorm("ln2", cfg.Dim),
			nn.NewMultiHeadAttention("attn2", cfg.Dim, cfg.Heads, rng),
			nn.NewLayerNorm("ln3", cfg.Dim),
			&nn.Flatten{},
			nn.NewLinear("fc1", cfg.Tokens*cfg.Dim, cfg.Hidden, rng),
			&nn.ReLU{},
			nn.NewLinear("fc2", cfg.Hidden, cfg.Actions, rng),
		}},
	}
}

// Config returns the network configuration.
func (q *QNetwork) Config() QConfig { return q.cfg }

// Params returns the trainable parameters.
func (q *QNetwork) Params() []*nn.Param { return q.net.Params() }

// Forward computes Q-values for one state ([Tokens, Width]) and returns a
// 1×Actions tensor. The forward pass caches activations for Backward.
func (q *QNetwork) Forward(state *nn.Tensor) *nn.Tensor {
	return q.net.Forward(state)
}

// Backward propagates a 1×Actions output gradient, accumulating parameter
// gradients. Must follow a Forward on the same state.
func (q *QNetwork) Backward(dq *nn.Tensor) {
	q.net.Backward(dq)
}

// ForwardInto is the inference-only forward pass: it computes Q-values
// for one state and copies them into dst (grown via nn.EnsureTensor when
// needed), so the result stays valid across subsequent forward passes.
// Unlike Forward, the returned tensor is owned by the caller, not by the
// network's internal workspace. Steady-state calls allocate nothing.
// Not safe for concurrent use, since it writes the network's
// workspaces: concurrent callers each run their own Agent.Clone, whose
// network shares these weights and owns its workspaces.
func (q *QNetwork) ForwardInto(dst *nn.Tensor, state *nn.Tensor) *nn.Tensor {
	out := q.net.Forward(state)
	dst = nn.EnsureTensor(dst, out.Rows, out.Cols)
	nn.CopyInto(dst, out)
	return dst
}

// MaskedArgmax returns the valid action with the highest Q-value and that
// value. It panics when no action is valid (the cold-start action is
// always valid in practice).
func MaskedArgmax(qvals *nn.Tensor, mask []bool) (int, float64) {
	best, bi := math.Inf(-1), -1
	for i, v := range qvals.Data {
		if i < len(mask) && mask[i] && v > best {
			best, bi = v, i
		}
	}
	if bi < 0 {
		panic("drl: no valid action to select")
	}
	return bi, best
}
