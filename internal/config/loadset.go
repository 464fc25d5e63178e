package config

import (
	"fmt"
	"io"
)

// LoadValidated parses a scenario and validates it in one step. It is
// the shared admission path: the CLI batch commands and the HTTP server
// both reject a bad spec here, before any simulation state exists.
func LoadValidated(r io.Reader) (*Scenario, error) {
	s, err := Load(r)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadFiles loads and validates every scenario file up front — a
// malformed or invalid file is a caller problem, not a run failure. An
// error names the file it came from.
func LoadFiles(paths []string) ([]*Scenario, error) {
	scens := make([]*Scenario, len(paths))
	for i, path := range paths {
		s, err := LoadFile(path)
		if err == nil {
			err = s.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		scens[i] = s
	}
	return scens, nil
}
