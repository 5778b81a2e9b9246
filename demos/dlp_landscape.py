"""Emit a rank-bounded Drezet-Le Potier landscape over the unit slope square.

Writes dlp_grid_f0.csv with exact rational values (columns eps,phi,delta);
feed it to any plotter.  The surface is a maximum of crescent-shaped sheets,
one per stable exceptional bundle of rank below the cutoff.
"""

from hirzebruch import build_table, dlp_grid
from hirzebruch.lattice import format_rational

E_SURF = 0
CUTOFF = 8
STEPS = 24

if __name__ == "__main__":
    table = build_table(E_SURF, CUTOFF - 1)
    eps, phi, rows = dlp_grid(E_SURF, 1, (0, 1, 0, 1), STEPS, CUTOFF, table)
    out = "dlp_grid_f0.csv"
    with open(out, "w") as fh:
        fh.write("eps,phi,delta\n")
        for i, ev in enumerate(eps):
            for j, pv in enumerate(phi):
                fh.write("%s,%s,%s\n" % (format_rational(ev), format_rational(pv),
                                         format_rational(rows[i][j].value)))
    ranks = {cell.witness[0] for row in rows for cell in row}
    print(f"wrote {out} ({(STEPS+1)**2} samples); contributing ranks: {sorted(ranks)}")
