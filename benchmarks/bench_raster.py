"""Raster/PNG hot path — rasterize, encode, decode at 1k/10k/100k rects.

The single-core raster pipeline is the last leg of every PNG/BMP/PPM
render: ``rasterize()`` paints the primitive list into an (h, w) canvas
of palette indices, ``.pixels`` gathers the (h, w, 3) uint8 RGB image,
and ``encode_png()`` filters + deflates it (one index byte per pixel when
the image has at most 256 colours, as these 16-colour fields do; the
gather is timed with the encode).  This benchmark draws
Gantt-shaped rect fields (dense rows of small task rects, the regime of
Scully-Allison & Isaacs' 100k-task traces) on a 2000x1200 canvas at three
scales and times each stage separately, so ``BENCH_raster.json`` holds a
committed trajectory for the regression gate.

Two invariants are asserted on every run:

* ``decode(encode(img))`` is pixel-identical — the encoder's output must
  keep round-tripping through our own decoder, at every scale;
* batched rasterization is pixel-identical to the naive per-primitive
  z-order walk (checked here on the 1k drawing against per-item
  ``fill_rect`` calls).

The committed baseline was measured *after* the vectorization PR; the
pre-change numbers for the 100k drawing (same machine, same drawing) were
rasterize 0.77 s + encode 0.17 s = 0.94 s, a >= 3x margin over the current
path.  The in-test assertion keeps 2.5x of slack against that recorded
wall to absorb runner variance; day-to-day drift is caught by the
regression gate comparing min-of-k timings against the committed
baseline instead.
"""

from __future__ import annotations

import numpy as np
from conftest import persist, report

from repro.core.colormap import Color
from repro.obs.bench import time_min_of_k
from repro.render.geometry import Drawing, Rect
from repro.render.png_codec import decode_png, encode_png
from repro.render.raster import RasterImage, rasterize

WIDTH, HEIGHT = 2000, 1200
SIZES = (1_000, 10_000, 100_000)

#: pre-change single-core wall (same drawing generator, see module docstring):
#: {size: rasterize+encode seconds} measured at the commit before the
#: vectorization landed.  Kept as a reference metricless constant — the
#: live regression gate compares against benchmarks/baselines/.
PRE_CHANGE_RE_S = {1_000: 0.224, 10_000: 0.254, 100_000: 0.937}


def rect_field(n: int, width: int = WIDTH, height: int = HEIGHT,
               seed: int = 1) -> Drawing:
    """A Gantt-shaped drawing: n overlapping task rects in dense rows."""
    rng = np.random.default_rng(seed)
    d = Drawing(width, height)
    colors = [Color(int(c), int(c) // 2, 255 - int(c))
              for c in rng.integers(0, 256, 16)]
    xs = rng.uniform(0, width - 40, n)
    ys = rng.uniform(0, height - 20, n)
    ws = rng.uniform(2, 40, n)
    hs = rng.uniform(2, 18, n)
    for i in range(n):
        d.add(Rect(float(xs[i]), float(ys[i]), float(ws[i]), float(hs[i]),
                   fill=colors[i % 16]))
    return d


def reference_rasterize(drawing: Drawing) -> RasterImage:
    """Naive per-primitive walk — the semantics batching must reproduce."""
    img = RasterImage(drawing.width, drawing.height, drawing.background)
    for item in drawing:
        img.fill_rect(item.x, item.y, item.w, item.h, item.fill)
    return img


def test_raster_pipeline(benchmark):
    drawings = {n: rect_field(n) for n in SIZES}

    # Correctness first: batching is pixel-exact vs. the per-item walk.
    small = drawings[SIZES[0]]
    assert np.array_equal(rasterize(small).pixels,
                          reference_rasterize(small).pixels)

    rows = []
    stage_runs: dict[int, dict[str, list[float]]] = {}
    for n, d in drawings.items():
        raster_runs = time_min_of_k(lambda d=d: rasterize(d))
        img = rasterize(d)
        encode_runs = time_min_of_k(lambda img=img: encode_png(img.pixels))
        png = encode_png(img.pixels)
        decode_runs = time_min_of_k(lambda png=png: decode_png(png))

        # The encoder's bytes must keep round-tripping through the decoder
        # pixel-for-pixel — CI fails here if either side drifts.
        assert np.array_equal(decode_png(png), img.pixels), \
            f"encode/decode round-trip broke at {n} rects"

        stage_runs[n] = {"rasterize": raster_runs, "encode": encode_runs,
                         "decode": decode_runs}
        t_re = min(raster_runs) + min(encode_runs)
        rows.append((f"{n} rects rasterize+encode",
                     f"pre-change {PRE_CHANGE_RE_S[n] * 1e3:.0f} ms",
                     f"{t_re * 1e3:.0f} ms ({PRE_CHANGE_RE_S[n] / t_re:.1f}x)"))
        rows.append((f"{n} rects decode", "-",
                     f"{min(decode_runs) * 1e3:.1f} ms"))

    report("Raster/PNG hot path (2000x1200)", rows)
    for n in SIZES:
        persist("raster", f"pipeline_{n}", timings_s=stage_runs[n])

    # Deterministic quality metrics: the painted geometry must not drift.
    big_img = rasterize(drawings[SIZES[-1]])
    background = int(np.all(big_img.pixels == 255, axis=-1).sum())
    persist("raster", "quality",
            metrics={"painted_px_100k": WIDTH * HEIGHT - background,
                     "canvas_px": WIDTH * HEIGHT})

    # The headline claim of the vectorization PR, with slack for CI noise:
    # >= 3x was measured against the pre-change wall on the dev machine.
    t_100k = (min(stage_runs[SIZES[-1]]["rasterize"])
              + min(stage_runs[SIZES[-1]]["encode"]))
    assert t_100k < PRE_CHANGE_RE_S[SIZES[-1]] / 2.5, \
        f"100k-rect rasterize+encode took {t_100k:.3f}s"

    result = benchmark.pedantic(
        lambda: encode_png(rasterize(drawings[SIZES[-1]]).pixels),
        rounds=3, iterations=1)
    assert result[:8] == b"\x89PNG\r\n\x1a\n"
