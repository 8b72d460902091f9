package monitor

import "net/http"

// handleDashboard serves the single-page cluster health view: rule states
// with burn rates, the target roster, and the bundle index, refreshed by
// polling /v1/slo and /v1/targets. It is deliberately a single inline page —
// no assets, no build step — so `coflowmon` alone is a complete monitoring
// stack for a local cluster.
func (m *Monitor) handleDashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(dashboardHTML))
}

const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>coflowmon</title>
<style>
  body { font-family: ui-monospace, Menlo, Consolas, monospace; margin: 2rem; background: #0b0e14; color: #d6d6d6; }
  h1 { font-size: 1.2rem; } h2 { font-size: 1rem; margin-top: 1.5rem; }
  table { border-collapse: collapse; width: 100%; }
  th, td { text-align: left; padding: 0.3rem 0.8rem; border-bottom: 1px solid #22262e; font-size: 0.85rem; }
  th { color: #8a919e; font-weight: normal; }
  .state { padding: 0.1rem 0.5rem; border-radius: 3px; font-size: 0.8rem; }
  .healthy, .resolved { background: #1b3a25; color: #6fd388; }
  .pending { background: #3a331b; color: #d3c06f; }
  .firing { background: #3a1b1b; color: #d36f6f; }
  .dead { color: #d36f6f; } .muted { color: #8a919e; }
  #err { color: #d36f6f; }
</style>
</head>
<body>
<h1>coflowmon <span id="err" class="muted"></span></h1>
<h2>SLO rules</h2>
<table id="rules"><thead><tr>
  <th>rule</th><th>metric</th><th>state</th><th>fast</th><th>slow</th>
  <th>fast burn</th><th>slow burn</th><th>firings</th><th>since</th>
</tr></thead><tbody></tbody></table>
<h2>Admit pipeline</h2>
<table id="stages"><thead><tr>
  <th>stage</th><th>p50</th><th>p99</th>
</tr></thead><tbody></tbody></table>
<h2>Targets</h2>
<table id="targets"><thead><tr>
  <th>instance</th><th>url</th><th>up</th><th>samples</th><th>scrape</th><th>error</th>
</tr></thead><tbody></tbody></table>
<h2>Bundles</h2>
<table id="bundles"><thead><tr>
  <th>rule</th><th>path</th><th>captured</th><th>bytes</th>
</tr></thead><tbody></tbody></table>
<script>
const fmt = v => v == null ? "—" : (Math.abs(v) >= 100 ? v.toFixed(0) : v.toPrecision(3));
const cell = t => { const td = document.createElement("td"); td.append(t); return td; };
function fill(id, rows) {
  const tb = document.querySelector("#" + id + " tbody");
  tb.replaceChildren(...rows.map(cols => {
    const tr = document.createElement("tr");
    tr.append(...cols);
    return tr;
  }));
}
function stateCell(s) {
  const span = document.createElement("span");
  span.className = "state " + s; span.textContent = s;
  return cell(span);
}
async function refresh() {
  try {
    const [slo, tgt, stg] = await Promise.all([
      fetch("v1/slo").then(r => r.json()),
      fetch("v1/targets").then(r => r.json()),
      fetch("v1/stages").then(r => r.json()),
    ]);
    fill("rules", slo.rules.map(r => [
      cell(r.rule.name), cell(r.rule.metric), stateCell(r.state),
      cell(fmt(r.fast_value)), cell(fmt(r.slow_value)),
      cell(fmt(r.fast_burn)), cell(fmt(r.slow_burn)),
      cell(String(r.firings)), cell(new Date(r.since).toLocaleTimeString()),
    ]));
    fill("targets", tgt.targets.map(t => {
      const up = cell(t.healthy ? "up" : "down");
      if (!t.healthy) up.className = "dead";
      return [cell(t.name), cell(t.url), up, cell(String(t.samples)),
              cell((t.duration_seconds * 1000).toFixed(1) + "ms"),
              cell(t.last_error || "")];
    }));
    const ms = v => (v * 1000).toFixed(3) + "ms";
    const order = ["coalesce-wait", "engine-admit", "wal-append", "group-commit"];
    const stageRows = Object.entries(stg.admit_stages || {})
      .sort((a, b) => order.indexOf(a[0]) - order.indexOf(b[0]))
      .map(([name, q]) => [cell(name), cell(ms(q.p50)), cell(ms(q.p99))]);
    fill("stages", stageRows);
    fill("bundles", (slo.bundles || []).map(b => [
      cell(b.rule), cell(b.path),
      cell(new Date(b.captured_at).toLocaleTimeString()),
      cell(String(b.size_bytes)),
    ]));
    document.getElementById("err").textContent = "";
  } catch (e) {
    document.getElementById("err").textContent = " — " + e;
  }
}
refresh();
setInterval(refresh, 2000);
</script>
</body>
</html>
`
