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
	defer func(j int, d string, r bool) { *jobs, *cacheDir, *resume = j, d, r }(*jobs, *cacheDir, *resume)
	parent := t.TempDir()
	cases := []struct {
		name     string
		jobs     int
		cacheDir string
		resume   bool
		wantErr  bool
	}{
		{"defaults, no cache", 4, "", false, false},
		{"single worker", 1, "", false, false},
		{"cache under existing parent", 2, parent + "/cache", false, false},
		{"resume with cache", 2, parent + "/cache", true, false},
		{"zero jobs", 0, "", false, true},
		{"negative jobs", -3, "", false, true},
		{"nonexistent cache parent", 2, parent + "/no/such/cache", false, true},
		{"resume without cache", 2, "", true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			*jobs, *cacheDir, *resume = c.jobs, c.cacheDir, c.resume
			if err := validate(); (err != nil) != c.wantErr {
				t.Errorf("validate(-jobs %d -cache-dir %q -resume=%v) = %v, wantErr=%v",
					c.jobs, c.cacheDir, c.resume, err, c.wantErr)
			}
		})
	}
}
