"""Standalone interactive HTML backend (data-driven).

The page this backend emits is *not* a baked picture: it embeds the
schedule itself — a canonical JSON payload built by
:mod:`repro.render.html_payload` (clusters, tasks or LOD cell tiers, the
color map, schedule bounds) — plus a small JavaScript module that mirrors
the Python viewport algebra of :mod:`repro.core.viewport` line for line:

* cursor-anchored mouse-wheel zoom (``vpZoom`` == ``Viewport.zoom``),
* drag pan (``vpPan`` == ``Viewport.pan``), clamped to the schedule
  bounds (``vpClamp`` == ``Viewport.clamped_to``),
* shift-drag rubber-band zoom (``vpZoomTo`` == ``Viewport.zoom_to``),
* double-click reset, half-open hit-testing matching
  :func:`repro.core.select.hit_test`, a hover/click inspector matching
  :func:`repro.core.select.describe_task`, and cluster/type filter
  toggles.

Past the task threshold the payload carries level-of-detail cell tiers
instead of raw rectangles and the viewer swaps between tiers (and, when
present, raw tasks) as the zoom changes — a 100k-job trace stays a small
page and responsive to interact with.  Everything is inline: no external
assets, openable from disk.

:func:`render_html` is the drawing-level HTML page, used by
``render_drawing(d, "html")`` for figures that only have geometry (task
graphs, profiles, comparisons, the report dashboard): it wraps the SVG
output with hover/zoom handlers.  Its wheel zoom computes the cursor
anchor through the effective uniform scale of
``preserveAspectRatio="xMidYMid meet"`` — naive
``getBoundingClientRect()`` proportions drift as soon as zooming changes
the viewBox aspect ratio and the letterbox appears.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from repro.render.geometry import Drawing
from repro.render.html_payload import payload_json

__all__ = ["render_html", "render_html_interactive", "embed_json_text"]


def embed_json_text(text: str) -> str:
    """Make JSON text safe inside a ``<script>`` element.

    ``</`` becomes ``<\\/`` (legal JSON string escape) so hostile task
    ids/titles/meta like ``</script><script>...`` cannot close the data
    block; U+2028/U+2029 are escaped for the same reason.
    """
    return (text.replace("</", "<\\/")
                .replace(" ", "\\u2028")
                .replace(" ", "\\u2029"))


# --------------------------------------------------------------------------
# drawing-level page (SVG + hover/zoom), for figures that only have a
# Drawing
# --------------------------------------------------------------------------

_SVG_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>__TITLE__</title>
<style>
  body { font-family: Helvetica, Arial, sans-serif; margin: 16px; }
  #tip { position: fixed; display: none; background: #222; color: #fff;
         padding: 3px 8px; border-radius: 4px; font-size: 12px;
         pointer-events: none; z-index: 10; }
  svg { border: 1px solid #ccc; cursor: crosshair; }
  rect[data-ref]:hover { stroke-width: 2.5; }
  p.hint { color: #666; font-size: 12px; }
</style>
</head>
<body>
<div id="tip"></div>
__SVG__
<p class="hint">hover a task for its id &middot; mouse wheel zooms &middot;
double-click resets</p>
<script>
(function () {
  var svg = document.querySelector("svg");
  var tip = document.getElementById("tip");
  var home = svg.getAttribute("viewBox");

  svg.addEventListener("mousemove", function (ev) {
    var t = ev.target;
    var ref = t.getAttribute && t.getAttribute("data-ref");
    if (ref) {
      tip.textContent = ref.replace(/^task:/, "task ");
      tip.style.display = "block";
      tip.style.left = (ev.clientX + 12) + "px";
      tip.style.top = (ev.clientY + 12) + "px";
    } else {
      tip.style.display = "none";
    }
  });
  svg.addEventListener("mouseleave", function () {
    tip.style.display = "none";
  });
  svg.addEventListener("wheel", function (ev) {
    ev.preventDefault();
    var vb = svg.getAttribute("viewBox").split(" ").map(Number);
    var f = ev.deltaY < 0 ? 1 / 1.25 : 1.25;
    var r = svg.getBoundingClientRect();
    // preserveAspectRatio="xMidYMid meet": the viewBox maps through one
    // uniform scale s, centered with letterbox offsets ox/oy.  Dividing
    // by r.width/r.height instead drifts once zooming changes the
    // viewBox aspect ratio.
    var s = Math.min(r.width / vb[2], r.height / vb[3]);
    var ox = (r.width - s * vb[2]) / 2;
    var oy = (r.height - s * vb[3]) / 2;
    var cx = vb[0] + (ev.clientX - r.left - ox) / s;
    var cy = vb[1] + (ev.clientY - r.top - oy) / s;
    var w = vb[2] * f, h = vb[3] * f;
    svg.setAttribute("viewBox",
      (cx - (cx - vb[0]) * f) + " " + (cy - (cy - vb[1]) * f) + " " + w + " " + h);
  }, { passive: false });
  svg.addEventListener("dblclick", function () {
    svg.setAttribute("viewBox", home);
  });
})();
</script>
</body>
</html>
"""


def render_html(drawing: Drawing, *, title: str = "jedule schedule") -> bytes:
    """Serialize a drawing as a standalone HTML page (SVG wrapper).

    ``title`` is user-controlled text (a schedule name such as ``a<b & c``)
    and is escaped before interpolation — the rest of the page body is the
    SVG backend's output, which already escapes all text and attributes.
    """
    from repro.render.backends.svg import render_svg

    svg = render_svg(drawing).decode("utf-8")
    # drop the XML prolog: inline SVG in HTML5 must not carry it
    body = svg.split("?>", 1)[1].lstrip() if svg.startswith("<?xml") else svg
    page = (_SVG_TEMPLATE
            .replace("__TITLE__", escape(title))
            .replace("__SVG__", body))
    return page.encode("utf-8")


# --------------------------------------------------------------------------
# data-driven interactive viewer
# --------------------------------------------------------------------------

_VIEWER_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>__TITLE__</title>
<style>
  body { font-family: Helvetica, Arial, sans-serif; margin: 16px;
         color: #222; }
  h1 { font-size: 16px; margin: 0 0 8px 0; }
  #wrap { display: flex; gap: 16px; align-items: flex-start; }
  #chart { border: 1px solid #ccc; cursor: crosshair; display: block;
           touch-action: none; }
  #side { width: 260px; font-size: 12px; }
  #inspector { border: 1px solid #ccc; border-radius: 4px; padding: 8px;
               min-height: 90px; white-space: pre-wrap;
               font-family: ui-monospace, Menlo, Consolas, monospace; }
  #inspector.pinned { border-color: #557; background: #f4f4fb; }
  fieldset { border: 1px solid #ddd; border-radius: 4px; margin: 8px 0;
             padding: 4px 8px; max-height: 150px; overflow-y: auto; }
  legend { font-weight: bold; }
  label { display: block; cursor: pointer; }
  label .swatch { display: inline-block; width: 10px; height: 10px;
                  margin-right: 4px; border: 1px solid #888; }
  #status { color: #666; font-size: 12px; margin-top: 4px; }
  p.hint { color: #666; font-size: 12px; max-width: 640px; }
</style>
</head>
<body>
<h1 id="head"></h1>
<div id="wrap">
  <div>
    <canvas id="chart"></canvas>
    <div id="status"></div>
    <p class="hint">wheel: zoom at cursor &middot; drag: pan &middot;
    shift-drag: rubber-band zoom &middot; double-click: reset &middot;
    hover/click a task to inspect</p>
  </div>
  <div id="side">
    <div id="inspector">hover a task…</div>
    <fieldset id="typefs"><legend>types</legend></fieldset>
    <fieldset id="clusterfs"><legend>clusters</legend></fieldset>
  </div>
</div>
<script type="application/json" id="jedule-data">__DATA__</script>
<script>
"use strict";
/* Viewport algebra — a line-for-line mirror of repro.core.viewport.
 * All intervals are half-open [t0, t1) x [r0, r1), matching the Python
 * convention, so boundary clicks behave identically in both worlds. */
var MIN_SPAN = 1e-12;

function vpZoom(vp, factor, at) {
  var ct = at ? at[0] : (vp.t0 + vp.t1) / 2;
  var cr = at ? at[1] : (vp.r0 + vp.r1) / 2;
  var tspan = vp.t1 - vp.t0, rspan = vp.r1 - vp.r0;
  var nts = Math.max(tspan / factor, MIN_SPAN);
  var nrs = Math.max(rspan / factor, MIN_SPAN);
  var ft = (ct - vp.t0) / tspan;
  var fr = (cr - vp.r0) / rspan;
  var t0 = ct - ft * nts;
  var r0 = cr - fr * nrs;
  return {t0: t0, t1: t0 + nts, r0: r0, r1: r0 + nrs};
}

function vpPan(vp, dt, dr) {
  return {t0: vp.t0 + dt, t1: vp.t1 + dt, r0: vp.r0 + dr, r1: vp.r1 + dr};
}

function vpZoomTo(vp, t0, t1, r0, r1) {
  if (r0 === null) { r0 = vp.r0; }
  if (r1 === null) { r1 = vp.r1; }
  if (t1 - t0 < MIN_SPAN) {
    var mt = (t0 + t1) / 2;
    t0 = mt - MIN_SPAN / 2; t1 = mt + MIN_SPAN / 2;
  }
  if (r1 - r0 < MIN_SPAN) {
    var mr = (r0 + r1) / 2;
    r0 = mr - MIN_SPAN / 2; r1 = mr + MIN_SPAN / 2;
  }
  return {t0: t0, t1: t1, r0: r0, r1: r1};
}

function vpClamp(vp, b) {
  var tspan = Math.min(vp.t1 - vp.t0, b.t1 - b.t0);
  var rspan = Math.min(vp.r1 - vp.r0, b.r1 - b.r0);
  var t0 = Math.min(Math.max(vp.t0, b.t0), b.t1 - tspan);
  var r0 = Math.min(Math.max(vp.r0, b.r0), b.r1 - rspan);
  return {t0: t0, t1: t0 + tspan, r0: r0, r1: r0 + rspan};
}

function vpContains(vp, t, r) {
  return vp.t0 <= t && t < vp.t1 && vp.r0 <= r && r < vp.r1;
}

/* Raw-vs-LOD swap: draw exact task rects while the visible-task count
 * stays within the raw budget, aggregated tier cells beyond it. */
function drawMode(visible, hasTasks, hasTiers, budget) {
  if (!hasTiers) { return "raw"; }
  if (!hasTasks) { return "lod"; }
  return visible <= budget ? "raw" : "lod";
}

/* Pick the finest tier whose cells still cover >= ~1 device pixel. */
function pickTier(tiers, plotW, visFrac) {
  var best = 0;
  for (var i = 0; i < tiers.length; i++) {
    if (tiers[i].nx * visFrac <= plotW) { best = i; }
  }
  return best;
}

/* nice axis ticks at 1/2/5 x 10^k steps (mirror of layout.nice_ticks) */
function niceTicks(lo, hi, target) {
  var span = hi - lo;
  if (!(span > 0) || !isFinite(span)) { return [lo]; }
  var raw = span / (target - 1);
  var mag = Math.pow(10, Math.floor(Math.log(raw) / Math.LN10));
  var step = mag;
  var mults = [1, 2, 5, 10];
  for (var i = 0; i < mults.length; i++) {
    step = mults[i] * mag;
    if (span / step <= target - 1) { break; }
  }
  var ticks = [];
  var k = Math.ceil(lo / step - 1e-9);
  for (; k * step <= hi + step * 1e-6 && ticks.length < 40; k++) {
    var t = k * step;
    ticks.push(Math.abs(t) < step * 1e-9 ? 0 : t);
  }
  return ticks.length ? ticks : [lo];
}

function fmt(v) {
  return Number(v.toPrecision(6)).toString();
}

function hostRangeText(lo, hi) {
  return hi - lo === 1 ? String(lo) : lo + "-" + (hi - 1);
}

(function () {
  var data = JSON.parse(document.getElementById("jedule-data").textContent);
  var bounds = {t0: data.bounds.t0, t1: data.bounds.t1,
                r0: 0, r1: data.bounds.rows};
  var vp = data.initial ? vpClamp(data.initial, bounds)
                        : {t0: bounds.t0, t1: bounds.t1,
                           r0: bounds.r0, r1: bounds.r1};
  var tasks = data.tasks || null;
  var tiers = data.lod ? data.lod.tiers : null;
  var head = document.getElementById("head");
  head.textContent = (data.title || "jedule schedule") +
    " — " + data.task_count + " tasks";
  document.title = data.title || document.title;

  var canvas = document.getElementById("chart");
  var W = __WIDTH__, H = __HEIGHT__;
  var dpr = window.devicePixelRatio || 1;
  canvas.style.width = W + "px";
  canvas.style.height = H + "px";
  canvas.width = Math.round(W * dpr);
  canvas.height = Math.round(H * dpr);
  var ctx = canvas.getContext("2d");
  ctx.scale(dpr, dpr);
  var M = {left: 64, top: 8, right: 10, bottom: 30};
  var plotX = M.left, plotY = M.top;
  var plotW = W - M.left - M.right, plotH = H - M.top - M.bottom;

  var typeOn = data.types.map(function () { return true; });
  var clusterOn = data.clusters.map(function () { return true; });
  var hover = null;       // hovered task entry
  var pinned = null;      // clicked (pinned) task entry
  var drag = null;        // {mode: "pan"|"band", x0, y0, x1, y1, vp0}

  function sx(t) { return plotX + (t - vp.t0) / (vp.t1 - vp.t0) * plotW; }
  function sy(r) { return plotY + (r - vp.r0) / (vp.r1 - vp.r0) * plotH; }
  function px2t(x) { return vp.t0 + (x - plotX) / plotW * (vp.t1 - vp.t0); }
  function px2r(y) { return vp.r0 + (y - plotY) / plotH * (vp.r1 - vp.r0); }

  function taskVisible(task) {
    if (!typeOn[task.t]) { return false; }
    if (!(task.s < vp.t1 && vp.t0 < task.e ||
          task.s === task.e && vp.t0 <= task.s && task.s < vp.t1)) {
      return false;
    }
    for (var i = 0; i < task.r.length; i++) {
      var rect = task.r[i];
      if (clusterOn[rect[0]] && rect[1] < vp.r1 && vp.r0 < rect[2]) {
        return true;
      }
    }
    return false;
  }

  function visibleTasks() {
    if (!tasks) { return []; }
    var out = [];
    for (var i = 0; i < tasks.length; i++) {
      if (taskVisible(tasks[i])) { out.push(tasks[i]); }
    }
    return out;
  }

  /* Half-open hit test, mirror of repro.core.select.hit_test: the
   * topmost (= last registered) task whose rectangle contains (t, row). */
  function hitTest(t, row) {
    if (!tasks || !vpContains(vp, t, row)) { return null; }
    var hit = null;
    for (var i = 0; i < tasks.length; i++) {
      var task = tasks[i];
      if (!typeOn[task.t]) { continue; }
      if (!(task.s <= t && t < task.e)) { continue; }
      for (var j = 0; j < task.r.length; j++) {
        var rect = task.r[j];
        if (clusterOn[rect[0]] && rect[1] <= row && row < rect[2]) {
          hit = task;
          break;
        }
      }
    }
    return hit;
  }

  function drawRawTasks(visible) {
    for (var i = 0; i < visible.length; i++) {
      var task = visible[i];
      var x0 = sx(Math.max(task.s, vp.t0));
      var x1 = sx(Math.min(task.e, vp.t1));
      var w = Math.max(x1 - x0, 0.75);
      ctx.fillStyle = data.colors[task.t];
      for (var j = 0; j < task.r.length; j++) {
        var rect = task.r[j];
        if (!clusterOn[rect[0]]) { continue; }
        var lo = Math.max(rect[1], vp.r0), hi = Math.min(rect[2], vp.r1);
        if (hi <= lo) { continue; }
        var y0 = sy(lo);
        ctx.fillRect(x0, y0, w, Math.max(sy(hi) - y0, 0.75));
      }
    }
    var mark = hover || pinned;
    if (mark) {
      ctx.strokeStyle = "#000";
      ctx.lineWidth = 1.5;
      var mx0 = sx(Math.max(mark.s, vp.t0));
      var mw = Math.max(sx(Math.min(mark.e, vp.t1)) - mx0, 1);
      for (var k = 0; k < mark.r.length; k++) {
        var mr = mark.r[k];
        var mlo = Math.max(mr[1], vp.r0), mhi = Math.min(mr[2], vp.r1);
        if (mhi <= mlo) { continue; }
        ctx.strokeRect(mx0, sy(mlo), mw, sy(mhi) - sy(mlo));
      }
      ctx.lineWidth = 1;
    }
  }

  function drawTier(tier) {
    var T0 = bounds.t0, span = bounds.t1 - bounds.t0;
    for (var b = 0; b < tier.clusters.length; b++) {
      var band = tier.clusters[b];
      if (!clusterOn[band.c]) { continue; }
      var cl = data.clusters[band.c];
      var rowsPerCell = cl.hosts / band.ny;
      var runs = band.runs;
      for (var i = 0; i < runs.length; i++) {
        var run = runs[i];
        if (!typeOn[run[3]]) { continue; }
        var t0 = T0 + run[1] / tier.nx * span;
        var t1 = T0 + run[2] / tier.nx * span;
        if (!(t0 < vp.t1 && vp.t0 < t1)) { continue; }
        var lo = cl.offset + run[0] * rowsPerCell;
        var hi = lo + rowsPerCell;
        if (!(lo < vp.r1 && vp.r0 < hi)) { continue; }
        var x0 = sx(Math.max(t0, vp.t0));
        var x1 = sx(Math.min(t1, vp.t1));
        var y0 = sy(Math.max(lo, vp.r0));
        var y1 = sy(Math.min(hi, vp.r1));
        ctx.fillStyle = data.colors[run[3]];
        ctx.fillRect(x0, y0, Math.max(x1 - x0, 0.75),
                     Math.max(y1 - y0, 0.75));
      }
    }
  }

  function drawAxes() {
    ctx.strokeStyle = "#444";
    ctx.fillStyle = "#444";
    ctx.font = "10px Helvetica, Arial, sans-serif";
    ctx.strokeRect(plotX + 0.5, plotY + 0.5, plotW - 1, plotH - 1);
    var ticks = niceTicks(vp.t0, vp.t1, 8);
    ctx.textAlign = "center";
    ctx.textBaseline = "top";
    for (var i = 0; i < ticks.length; i++) {
      if (ticks[i] < vp.t0 || ticks[i] > vp.t1) { continue; }
      var x = sx(ticks[i]);
      ctx.beginPath();
      ctx.moveTo(x, plotY + plotH);
      ctx.lineTo(x, plotY + plotH + 4);
      ctx.stroke();
      ctx.fillText(fmt(ticks[i]), x, plotY + plotH + 6);
    }
    ctx.textAlign = "right";
    ctx.textBaseline = "middle";
    var rticks = niceTicks(vp.r0, vp.r1, 10);
    for (var j = 0; j < rticks.length; j++) {
      var r = rticks[j];
      if (r < vp.r0 || r > vp.r1 || r !== Math.floor(r)) { continue; }
      ctx.fillText(String(r), plotX - 6, sy(r));
    }
    // cluster separators + names
    for (var c = 0; c < data.clusters.length; c++) {
      var off = data.clusters[c].offset;
      if (c > 0 && vp.r0 < off && off < vp.r1) {
        var ySep = sy(off);
        ctx.strokeStyle = "#222";
        ctx.beginPath();
        ctx.moveTo(plotX, ySep);
        ctx.lineTo(plotX + plotW, ySep);
        ctx.stroke();
        ctx.strokeStyle = "#444";
      }
    }
  }

  function render() {
    ctx.clearRect(0, 0, W, H);
    ctx.fillStyle = "#fff";
    ctx.fillRect(plotX, plotY, plotW, plotH);
    ctx.save();
    ctx.beginPath();
    ctx.rect(plotX, plotY, plotW, plotH);
    ctx.clip();
    var visible = visibleTasks();
    var mode = drawMode(visible.length, !!tasks, !!tiers, data.raw_budget);
    var tierIdx = -1;
    if (mode === "raw") {
      drawRawTasks(visible);
    } else {
      var visFrac = (vp.t1 - vp.t0) / (bounds.t1 - bounds.t0);
      tierIdx = pickTier(tiers, plotW, visFrac);
      drawTier(tiers[tierIdx]);
    }
    ctx.restore();
    if (drag && drag.mode === "band") {
      ctx.strokeStyle = "#3355cc";
      ctx.setLineDash([4, 3]);
      ctx.strokeRect(Math.min(drag.x0, drag.x1), Math.min(drag.y0, drag.y1),
                     Math.abs(drag.x1 - drag.x0), Math.abs(drag.y1 - drag.y0));
      ctx.setLineDash([]);
    }
    drawAxes();
    var status = mode === "raw"
      ? "raw: " + visible.length + " visible task(s)"
      : "LOD tier " + (tierIdx + 1) + "/" + tiers.length +
        " (nx=" + tiers[tierIdx].nx + ")";
    document.getElementById("status").textContent =
      status + " — t [" + fmt(vp.t0) + ", " + fmt(vp.t1) +
      ") rows [" + fmt(vp.r0) + ", " + fmt(vp.r1) + ")";
  }

  /* inspector: field-for-field the payload of describe_task() */
  function inspectorText(task) {
    var lines = ["task " + task.id + " (" + data.types[task.t] + ")",
                 "  start:    " + fmt(task.s),
                 "  finish:   " + fmt(task.e),
                 "  duration: " + fmt(task.e - task.s)];
    var hosts = 0;
    var byCluster = {};
    for (var i = 0; i < task.r.length; i++) {
      var rect = task.r[i];
      hosts += rect[2] - rect[1];
      var cl = data.clusters[rect[0]];
      var txt = hostRangeText(rect[1] - cl.offset, rect[2] - cl.offset);
      byCluster[rect[0]] = byCluster[rect[0]]
        ? byCluster[rect[0]] + "," + txt : txt;
    }
    lines.splice(4, 0, "  hosts:    " + hosts);
    Object.keys(byCluster).forEach(function (ci) {
      lines.push("  cluster " + data.clusters[ci].id + ": " + byCluster[ci]);
    });
    if (task.m) {
      Object.keys(task.m).forEach(function (k) {
        lines.push("  " + k + " = " + task.m[k]);
      });
    }
    return lines.join("\\n");
  }

  var inspector = document.getElementById("inspector");
  function updateInspector() {
    var task = pinned || hover;
    inspector.classList.toggle("pinned", !!pinned);
    if (task) {
      inspector.textContent = inspectorText(task);
    } else if (tasks) {
      inspector.textContent = "hover a task…";
    } else {
      inspector.textContent = "aggregated view — zoom in to inspect " +
        "individual tasks" + (tasks ? "" : " (raw tasks not embedded)");
    }
  }

  /* filter toggles */
  function buildFilters(fs, names, flags, swatches) {
    names.forEach(function (name, i) {
      var label = document.createElement("label");
      var box = document.createElement("input");
      box.type = "checkbox";
      box.checked = true;
      box.addEventListener("change", function () {
        flags[i] = box.checked;
        hover = null;
        render();
        updateInspector();
      });
      label.appendChild(box);
      if (swatches) {
        var sw = document.createElement("span");
        sw.className = "swatch";
        sw.style.background = swatches[i];
        label.appendChild(sw);
      }
      label.appendChild(document.createTextNode(" " + name));
      fs.appendChild(label);
    });
  }
  buildFilters(document.getElementById("typefs"), data.types, typeOn,
               data.colors);
  buildFilters(document.getElementById("clusterfs"),
               data.clusters.map(function (c) {
                 return c.name + " (" + c.hosts + ")";
               }), clusterOn, null);

  /* interactions */
  function eventPoint(ev) {
    var r = canvas.getBoundingClientRect();
    return [ev.clientX - r.left, ev.clientY - r.top];
  }

  canvas.addEventListener("wheel", function (ev) {
    ev.preventDefault();
    var p = eventPoint(ev);
    var factor = ev.deltaY < 0 ? 1.25 : 1 / 1.25;
    vp = vpClamp(vpZoom(vp, factor, [px2t(p[0]), px2r(p[1])]), bounds);
    render();
  }, {passive: false});

  canvas.addEventListener("mousedown", function (ev) {
    var p = eventPoint(ev);
    drag = {mode: ev.shiftKey ? "band" : "pan",
            x0: p[0], y0: p[1], x1: p[0], y1: p[1],
            t0: px2t(p[0]), r0: px2r(p[1]), moved: false};
  });

  canvas.addEventListener("mousemove", function (ev) {
    var p = eventPoint(ev);
    if (drag) {
      drag.moved = true;
      if (drag.mode === "pan") {
        var dt = drag.t0 - px2t(p[0]);
        var dr = drag.r0 - px2r(p[1]);
        vp = vpClamp(vpPan(vp, dt, dr), bounds);
      } else {
        drag.x1 = p[0];
        drag.y1 = p[1];
      }
      render();
      return;
    }
    var was = hover;
    hover = hitTest(px2t(p[0]), px2r(p[1]));
    if (hover !== was) {
      render();
      updateInspector();
    }
  });

  window.addEventListener("mouseup", function (ev) {
    if (!drag) { return; }
    var d = drag;
    drag = null;
    if (d.mode === "band" && d.moved &&
        Math.abs(d.x1 - d.x0) > 3 && Math.abs(d.y1 - d.y0) > 3) {
      var ta = px2t(Math.min(d.x0, d.x1)), tb = px2t(Math.max(d.x0, d.x1));
      var ra = px2r(Math.min(d.y0, d.y1)), rb = px2r(Math.max(d.y0, d.y1));
      vp = vpClamp(vpZoomTo(vp, ta, tb, ra, rb), bounds);
    } else if (!d.moved) {
      var p = eventPoint(ev);
      pinned = hitTest(px2t(p[0]), px2r(p[1]));
      updateInspector();
    }
    render();
  });

  canvas.addEventListener("mouseleave", function () {
    if (hover) {
      hover = null;
      render();
      updateInspector();
    }
  });

  canvas.addEventListener("dblclick", function () {
    vp = {t0: bounds.t0, t1: bounds.t1, r0: bounds.r0, r1: bounds.r1};
    pinned = null;
    render();
    updateInspector();
  });

  window.addEventListener("keydown", function (ev) {
    if (ev.key === "Escape") {
      pinned = null;
      updateInspector();
      render();
    }
  });

  render();
  updateInspector();
})();
</script>
</body>
</html>
"""


def render_html_interactive(
    payload: dict,
    *,
    width: int = 900,
    height: int = 480,
) -> bytes:
    """Emit the self-contained interactive page for a schedule payload.

    ``payload`` comes from :func:`repro.render.html_payload.build_payload`,
    in the same process, so it is embedded as built; the tests check pages
    against :func:`repro.render.html_payload.validate_payload`.
    User-controlled strings inside it (title, task ids, meta) reach the
    page only through the JSON block — escaped by
    :func:`embed_json_text` — and the DOM only through ``textContent``, so
    they cannot inject markup.
    """
    data = embed_json_text(payload_json(payload))
    title = payload.get("title") or "jedule schedule"
    page = (_VIEWER_TEMPLATE
            .replace("__TITLE__", escape(title))
            .replace("__WIDTH__", str(int(width)))
            .replace("__HEIGHT__", str(int(height)))
            .replace("__DATA__", data))
    return page.encode("utf-8")
