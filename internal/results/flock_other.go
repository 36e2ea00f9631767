//go:build !unix

package results

import "os"

func flock(*os.File) error { return nil }
