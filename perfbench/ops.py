"""One benchmark operation: ``weakquasi run`` and, optionally, ``compare`` calls.

Kept free of numpy so the set-up probe can import it before it starts timing
``import weakquasi``.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path


def operation(main, config: Path, out_dir: Path, ref_dir: Path | None, tables: tuple[str, ...]) -> list[int]:
    """Run one scenario through the CLI entry point; return every exit code.

    With ``ref_dir``, each name in ``tables`` is then compared at --tol 1e-12
    against the reference export of the same name.  The CLI's report lines go
    to a discarded buffer, as they would go to a terminal.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(["run", str(config), "--out", str(out_dir)])]
        if ref_dir is not None:
            for name in tables:
                codes.append(main(["compare", str(out_dir / name), str(ref_dir / name), "--tol", "1e-12"]))
    return codes
