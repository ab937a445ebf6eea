"""One fresh-process set-up of a workload, timed from outside by run.py.

Usage: python3 setup_probe.py <src dir> <workload>

Imports lbk, makes the first closed-form call and the first oracle call
(cold Gauss-Legendre cache) and, for ``sweep``, one pooled ``lbk verify``
call, which starts verify's worker pool.
"""

import contextlib
import io
import sys


def main(src, workload):
    sys.path.insert(0, src)
    import lbk
    from lbk import cli

    p = lbk.IntegralParams(3, 1, 1.0, 5.0)
    lbk.closed_form_I(p)
    lbk.integrate_I(p)
    if workload == "sweep":
        # verify pools its cases only above eight of them.
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["verify", "--seed", "1", "--cases", "9"])
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
