// Package nn provides neural-network layers, optimizers and parameter
// persistence on top of the tensor autodiff engine.
//
// The layers implement exactly the components of the paper's §4:
// order-free embedding (Eq. 1), masked multi-head self-attention
// (Eqs. 2–4), the regularized residual sub-layer (Eqs. 5–6) and the
// point-wise feed-forward layer (Eq. 7). An LSTM cell is included for
// the DeepLog baseline.
package nn

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"github.com/ucad/ucad/internal/tensor"
)

// Module is anything owning trainable parameters.
type Module interface {
	Params() []*tensor.Param
}

// CollectParams flattens the parameters of several modules.
func CollectParams(ms ...Module) []*tensor.Param {
	var out []*tensor.Param
	for _, m := range ms {
		out = append(out, m.Params()...)
	}
	return out
}

// ZeroGrads clears the gradient of every parameter.
func ZeroGrads(params []*tensor.Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// AccumulateGrads folds externally held gradient buffers into the
// parameters' shared gradients: params[i].Grad += grads[i]. Data-parallel
// trainers call it once per worker in a fixed worker order before the
// optimizer step, so the reduced mini-batch gradient is a reproducible
// floating-point sum. grads must align with params index-for-index.
func AccumulateGrads(params []*tensor.Param, grads []*tensor.Matrix) {
	if len(grads) != len(params) {
		panic(fmt.Sprintf("nn: %d gradient buffers for %d params", len(grads), len(params)))
	}
	for i, p := range params {
		tensor.AddInto(p.Grad, grads[i])
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// max. It returns the pre-clip norm.
func ClipGradNorm(params []*tensor.Param, max float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if max > 0 && norm > max {
		scale := max / (norm + 1e-12)
		for _, p := range params {
			for i := range p.Grad.Data {
				p.Grad.Data[i] *= scale
			}
		}
	}
	return norm
}

// paramBlob is the on-disk representation of one parameter.
type paramBlob struct {
	Name       string
	Rows, Cols int
	Data       []float64
}

// SaveParams serializes parameters (by name) to w using gob.
func SaveParams(w io.Writer, params []*tensor.Param) error {
	blobs := make([]paramBlob, len(params))
	for i, p := range params {
		blobs[i] = paramBlob{Name: p.Name, Rows: p.Value.Rows, Cols: p.Value.Cols, Data: p.Value.Data}
	}
	return gob.NewEncoder(w).Encode(blobs)
}

// LoadParams restores parameter values saved by SaveParams. Every stored
// blob must match a parameter with the same name and shape, carry exactly
// Rows*Cols values, and every parameter must be stored exactly once.
func LoadParams(r io.Reader, params []*tensor.Param) error {
	// Keep reads byte-exact so this decoder cannot buffer past its own
	// gob messages when the stream continues after the parameters.
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReader(r)
	}
	var blobs []paramBlob
	if err := gob.NewDecoder(r).Decode(&blobs); err != nil {
		return fmt.Errorf("nn: decode params: %w", err)
	}
	byName := make(map[string]*tensor.Param, len(params))
	for _, p := range params {
		if _, dup := byName[p.Name]; dup {
			return fmt.Errorf("nn: duplicate parameter name %q", p.Name)
		}
		byName[p.Name] = p
	}
	if len(blobs) != len(params) {
		return fmt.Errorf("nn: stored %d params, model has %d", len(blobs), len(params))
	}
	for _, b := range blobs {
		p, ok := byName[b.Name]
		if !ok {
			return fmt.Errorf("nn: stored parameter %q not in model or stored twice", b.Name)
		}
		delete(byName, b.Name) // with the count check, no parameter keeps its init
		if p.Value.Rows != b.Rows || p.Value.Cols != b.Cols || len(b.Data) != b.Rows*b.Cols {
			return fmt.Errorf("nn: parameter %q shape %dx%d, stored %dx%d with %d values",
				b.Name, p.Value.Rows, p.Value.Cols, b.Rows, b.Cols, len(b.Data))
		}
		copy(p.Value.Data, b.Data)
	}
	return nil
}
