package plugins // want `package securityrbsg/internal/orphan has a register\.go but is not reachable from internal/plugins`

import (
	_ "securityrbsg/internal/goodscheme"
	_ "securityrbsg/internal/noreg" // want `blank import of securityrbsg/internal/noreg, which performs no registry registrations`
)
