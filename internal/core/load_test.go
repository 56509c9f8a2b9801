package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/sqlnorm"
	"github.com/ucad/ucad/internal/transdas"
)

// tinyModelBytes saves a detector trained in milliseconds: four
// templates (vocabulary 5 with k0), one block of width 4, TopP 4.
func tinyModelBytes(tb testing.TB) []byte {
	tb.Helper()
	var sessions []*session.Session
	for i := 0; i < 4; i++ {
		s := &session.Session{ID: fmt.Sprintf("s%d", i)}
		for p := 0; p < 6; p++ {
			s.Ops = append(s.Ops, session.Operation{SQL: fmt.Sprintf("SELECT * FROM t%d WHERE id = %d", (i+p)%4, p)})
		}
		sessions = append(sessions, s)
	}
	cfg := DefaultConfig()
	cfg.SkipClean = true
	cfg.Model.Hidden, cfg.Model.Heads, cfg.Model.Blocks, cfg.Model.Window = 4, 2, 1, 4
	cfg.Model.Epochs, cfg.Model.TopP = 1, 4
	u, err := Train(cfg, sessions, nil)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := u.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRefusesOversizedConfig: a config that passes Validate but
// asks New for more than 2^70 parameters is an error, not a makeslice
// panic (on a standby's replay path a panic kills the process).
func TestLoadRefusesOversizedConfig(t *testing.T) {
	cfg := transdas.DefaultConfig(1 << 40)
	cfg.Hidden = 1 << 30
	var buf bytes.Buffer
	for _, v := range []any{[]string{""}, cfg} {
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("a 2^40 x 2^30 embedding table loaded")
	}
}

// TestLoadRefusesInconsistentModel: a well-formed file whose parts
// cannot work together is refused — statements past cfg.Vocab would
// score as out-of-vocabulary forever, and a top-p admitting every key
// never flags anything.
func TestLoadRefusesInconsistentModel(t *testing.T) {
	for _, tc := range []struct {
		name      string
		templates int
		vocab     int
		topP      int
	}{
		{"more templates than keys", 4, 2, 1},
		{"top-p admits every key", 5, 5, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			templates := []string{""}
			for i := 1; i < tc.templates; i++ {
				templates = append(templates, fmt.Sprintf("SELECT * FROM t%d", i))
			}
			vocab, err := sqlnorm.FromTemplates(templates)
			if err != nil {
				t.Fatal(err)
			}
			cfg := transdas.DefaultConfig(tc.vocab)
			cfg.Hidden, cfg.Blocks, cfg.Window, cfg.TopP = 4, 1, 4, tc.topP
			var buf bytes.Buffer
			if err := (&UCAD{Vocab: vocab, Model: transdas.New(cfg)}).Save(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(&buf); err == nil {
				t.Fatalf("%d templates, vocab %d, top-p %d loaded", tc.templates, tc.vocab, tc.topP)
			}
		})
	}
}

// TestLoadRefusesNonFiniteWeights: a model file whose weights hold a
// NaN or an infinity is refused, naming the parameter. Loaded, such a
// model ranks every key 1, so it would never flag anything. The file is
// a real save with one value poisoned: its three gob sections
// (vocabulary, config, parameters) are decoded and re-encoded.
func TestLoadRefusesNonFiniteWeights(t *testing.T) {
	type blob struct {
		Name       string
		Rows, Cols int
		Data       []float64
	}
	model := tinyModelBytes(t)
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, victim := range []int{0, 1} {
			r := bytes.NewReader(model)
			var (
				templates []string
				cfg       transdas.Config
				params    []blob
			)
			for _, v := range []any{&templates, &cfg, &params} {
				if err := gob.NewDecoder(r).Decode(v); err != nil {
					t.Fatal(err)
				}
			}
			params[victim].Data[len(params[victim].Data)/2] = poison
			var buf bytes.Buffer
			for _, v := range []any{templates, cfg, params} {
				if err := gob.NewEncoder(&buf).Encode(v); err != nil {
					t.Fatal(err)
				}
			}
			_, err := Load(&buf)
			if err == nil || !strings.Contains(err.Error(), params[victim].Name) {
				t.Fatalf("%v in %s: Load error %v, want one naming the parameter", poison, params[victim].Name, err)
			}
		}
	}
}

// FuzzLoadModel: a model file is untrusted input (an admin upload, a
// shipped checkpoint). Load must never panic, and a model it accepts
// must save and load back to the same bytes — the same config,
// vocabulary and parameters.
func FuzzLoadModel(f *testing.F) {
	f.Add(tinyModelBytes(f))
	f.Add([]byte("nope"))
	f.Fuzz(func(t *testing.T, b []byte) {
		u, err := Load(bytes.NewReader(b))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := u.Save(&first); err != nil {
			t.Fatal(err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("a loaded model's own save does not load: %v", err)
		}
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("save -> load -> save changed the model")
		}
	})
}
