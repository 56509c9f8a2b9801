package transdas

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"

	"github.com/ucad/ucad/internal/nn"
)

// Save serializes the configuration and all trained parameters.
func (m *Model) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(m.cfg); err != nil {
		return fmt.Errorf("transdas: encode config: %w", err)
	}
	return nn.SaveParams(w, m.params)
}

// maxParamBytes caps the float64 parameter bytes a loaded configuration
// may ask New to allocate: 256 MiB, the admin model-upload limit, so a
// model file on disk cannot ask for more than an upload could carry.
const maxParamBytes = 256 << 20

// paramBytes is the float64 parameter bytes New allocates for c: an
// embedding table of Vocab rows, a Window-row position table when
// Positional, and per block 6·Hidden+6 rows (attention WQ, WK, WV, WO;
// feed-forward weights and biases; two layer-norm gain/bias pairs),
// every row Hidden wide. Computed in float64, which no int config can
// overflow.
func (c Config) paramBytes() float64 {
	rows := float64(c.Vocab) + float64(c.Blocks)*(6*float64(c.Hidden)+6)
	if c.Positional {
		rows += float64(c.Window)
	}
	return 8 * rows * float64(c.Hidden)
}

// Load reconstructs a model saved by Save. The configuration is
// validated, and held to maxParamBytes, before anything is allocated.
//
// The stream holds several consecutive gob messages; unless r reads
// byte-exact (implements io.ByteReader), each gob.Decoder would buffer
// past its own messages and misalign the next section, so wrap once.
func Load(r io.Reader) (*Model, error) {
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReader(r)
	}
	var cfg Config
	if err := gob.NewDecoder(r).Decode(&cfg); err != nil {
		return nil, fmt.Errorf("transdas: decode config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if b := cfg.paramBytes(); b > maxParamBytes {
		return nil, fmt.Errorf("transdas: config needs %.0f MiB of parameters, over the %d MiB cap", b/(1<<20), maxParamBytes>>20)
	}
	m := New(cfg)
	if err := nn.LoadParams(r, m.params); err != nil {
		return nil, err
	}
	return m, nil
}
