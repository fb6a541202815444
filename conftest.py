"""One BLAS thread for tests/ and perfbench/ alike, unless the caller set
a BLAS thread variable (spectral.one_blas_thread; on 2 CPUs the cold
suite took 142-163 s against 183 s).  It is chosen before any test builds
a kernel or Gamma, since cli.main makes the same choice and a test that
runs the package directly and then through cli.main must see one layout."""

from mvpb import spectral

spectral.one_blas_thread()
