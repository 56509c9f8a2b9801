package sqlnorm

import (
	"fmt"
	"sync"
)

// PadKey is the reserved statement key k0: padding and statements never
// seen during training (§5.1).
const PadKey = 0

// UnknownKey is the reserved key that out-of-vocabulary statements map
// to at the serving boundary. It shares the k0 slot with PadKey by the
// paper's construction: the model scores k0 like any key but never
// ranks it in the top-p, so an unseen template is always flagged —
// scored, never top-ranked, never an ingest error.
const UnknownKey = PadKey

// Vocabulary maps statement templates to unique integer keys starting at
// k1. It is safe for concurrent use: training builds it, online
// detection reads it from many sessions.
type Vocabulary struct {
	mu        sync.RWMutex
	keyOf     map[string]int
	templates []string // templates[0] is the reserved k0 slot, ""
}

// NewVocabulary returns an empty vocabulary with k0 reserved.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{
		keyOf:     make(map[string]int),
		templates: []string{""},
	}
}

// Learn abstracts the statement and returns its key, assigning the next
// free key if the template is new.
func (v *Vocabulary) Learn(sql string) int {
	template := Abstract(sql)
	v.mu.Lock()
	defer v.mu.Unlock()
	if k, ok := v.keyOf[template]; ok {
		return k
	}
	k := len(v.templates)
	v.keyOf[template] = k
	v.templates = append(v.templates, template)
	return k
}

// Key abstracts the statement and returns its key, or PadKey if the
// template was never learned (a "newly appeared statement" in the
// paper's terms).
func (v *Vocabulary) Key(sql string) int {
	template := Abstract(sql)
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.keyOf[template]
}

// Template returns the template text for a key ("" for PadKey or
// out-of-range keys).
func (v *Vocabulary) Template(key int) string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if key <= 0 || key >= len(v.templates) {
		return ""
	}
	return v.templates[key]
}

// Size returns the number of keys including the reserved k0 slot; valid
// statement keys are 1..Size()-1.
func (v *Vocabulary) Size() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.templates)
}

// Templates returns a copy of all learned templates indexed by key
// (index 0 is the reserved k0 slot, "").
func (v *Vocabulary) Templates() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return append([]string(nil), v.templates...)
}

// FromTemplates rebuilds a vocabulary from a Templates() slice (as
// persisted in a model checkpoint).
func FromTemplates(templates []string) (*Vocabulary, error) {
	if len(templates) == 0 || templates[0] != "" {
		return nil, fmt.Errorf("sqlnorm: vocabulary missing reserved k0 slot")
	}
	templates = append([]string(nil), templates...)
	v := &Vocabulary{keyOf: make(map[string]int, len(templates)), templates: templates}
	for k, tpl := range templates[1:] {
		v.keyOf[tpl] = k + 1
	}
	return v, nil
}
