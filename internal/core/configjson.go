package core

import (
	"encoding/json"
	"fmt"
	"io"

	"shortcutmining/internal/jsonindent"
)

// DecodeConfigJSON reads a platform configuration. Fields absent from
// the document keep their calibrated defaults, so a config file only
// needs the parameters it changes:
//
//	{"Pool": {"NumBanks": 64, "BankBytes": 16384}, "Batch": 4}
//
// The result is validated before being returned.
func DecodeConfigJSON(r io.Reader) (Config, error) {
	cfg := Default()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("core: decoding config json: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// EncodeConfigJSON writes the configuration in the format
// DecodeConfigJSON reads.
func EncodeConfigJSON(w io.Writer, cfg Config) error {
	return jsonindent.Encode(w, cfg)
}
