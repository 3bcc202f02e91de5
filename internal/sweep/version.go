package sweep

import "dctcpplus/internal/telemetry"

// CodeVersion returns the code-version string cache keys are scoped to when
// Runner.CodeVersion is left empty: the repository's git describe output
// ("unknown" outside a git checkout). It is exported so tooling can name
// exactly the string the sweep cache folds into Point.Key; every sweep
// journal header records it as code_version.
func CodeVersion() string {
	return telemetry.GitDescribe()
}
