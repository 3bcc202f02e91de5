package main

import "testing"

// The cases below drive the usage gate through the real flag variables, the
// way main does; each test restores the flags it touched. The helpers'
// own tables live in internal/cli.

func TestValidateFlags(t *testing.T) {
	defer func(r, w int) { *rounds, *warmup = r, w }(*rounds, *warmup)
	cases := []struct {
		name           string
		rounds, warmup int
		wantErr        bool
	}{
		{"defaults", 50, 10, false},
		{"paper scale", 1000, 10, false},
		{"single measured round", 1, 0, false},
		{"zero rounds", 0, 0, true},
		{"negative rounds", -1, 0, true},
		{"negative warmup", 50, -2, true},
		{"warmup equals rounds", 10, 10, true},
		{"warmup exceeds rounds", 10, 20, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			*rounds, *warmup = c.rounds, c.warmup
			if err := validate(); (err != nil) != c.wantErr {
				t.Errorf("validate(-rounds %d -warmup %d) = %v, wantErr=%v", c.rounds, c.warmup, err, c.wantErr)
			}
		})
	}
}

func TestValidateSweepFlags(t *testing.T) {
	defer func(j int) { *jobs = j }(*jobs)
	cases := []struct {
		name    string
		jobs    int
		wantErr bool
	}{
		{"defaults, no cache", 4, false},
		{"single worker", 1, false},
		{"zero jobs", 0, true},
		{"negative jobs", -3, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			*jobs = c.jobs
			if err := validate(); (err != nil) != c.wantErr {
				t.Errorf("validate(-jobs %d) = %v, wantErr=%v", c.jobs, err, c.wantErr)
			}
		})
	}
}
