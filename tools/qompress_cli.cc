/**
 * @file
 * Command-line front end: compile an OpenQASM 2.0 circuit for a
 * mixed-radix ququart device and report the paper's success metrics.
 *
 *   qompress_cli circuit.qasm [options]
 *
 * Options:
 *   --strategy=NAME   qubit_only | fq | eqm | rb | awe | pp | ec |
 *                     ec_unordered | portfolio  (default: eqm)
 *   --all             compare every standard strategy
 *   --topology=KIND   grid | heavyhex | ring | line (default: grid)
 *   --device=FILE     custom coupling list ("u v" per line)
 *   --units=N         device size for ring/line/grid (default: fitted)
 *   --lookahead=W     router lookahead weight (default 0)
 *   --t1-scale=X      scale both T1 times by X
 *   --2q-error=E      qubit-only two-qubit gate error (Figure 9 knob)
 *   --optimize        run cancellation/rotation-merging passes first
 *   --verify          statevector equivalence check (small circuits)
 *   --dump            print the scheduled physical gate list
 *   --qasm            echo the parsed circuit back as QASM
 *
 * Numeric values are strict (flags.hh): N in [1, 1024], W >= 0, X > 0,
 * E in [0, 1); anything else exits 2 with an error naming the flag.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/strings.hh"
#include "common/table.hh"
#include "flags.hh"
#include "ir/passes.hh"
#include "ir/qasm.hh"
#include "sim/equivalence.hh"
#include "strategies/strategy.hh"

using namespace qompress;

namespace {

struct CliOptions
{
    std::string file;
    std::string strategy = "eqm";
    std::string topology = "grid";
    std::string deviceFile;
    double lookahead = 0.0;
    int units = 0;
    double t1Scale = 1.0;
    double twoqError = 0.0;
    bool all = false;
    bool optimize = false;
    bool verify = false;
    bool dump = false;
    bool echoQasm = false;
};

void
usage()
{
    std::printf(
        "usage: qompress_cli circuit.qasm [--strategy=NAME] [--all]\n"
        "       [--topology=grid|heavyhex|ring|line] [--device=FILE]\n"
        "       [--units=N] [--lookahead=W] [--t1-scale=X]\n"
        "       [--2q-error=E] [--optimize] [--verify] [--dump]\n"
        "       [--qasm]\n");
}

CliOptions
parse(int argc, char **argv)
{
    CliOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto eq = a.find('=');
        const std::string flag = a.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : a.substr(eq + 1);
        if (a == "--all") {
            opts.all = true;
        } else if (a == "--optimize") {
            opts.optimize = true;
        } else if (a == "--verify") {
            opts.verify = true;
        } else if (a == "--dump") {
            opts.dump = true;
        } else if (a == "--qasm") {
            opts.echoQasm = true;
        } else if (flag == "--strategy") {
            opts.strategy = value;
        } else if (flag == "--topology") {
            opts.topology = value;
        } else if (flag == "--device") {
            opts.deviceFile = value;
        } else if (flag == "--lookahead") {
            opts.lookahead = nonNegativeFlag(flag, value);
        } else if (flag == "--units") {
            // qompressd's default --max-units.
            opts.units = static_cast<int>(integerFlag(flag, value, 1, 1024));
        } else if (flag == "--t1-scale") {
            opts.t1Scale = realFlag(flag, value, "> 0",
                                    [](double x) { return x > 0.0; });
        } else if (flag == "--2q-error") {
            opts.twoqError = realFlag(flag, value, "in [0, 1)", [](double x) {
                return x >= 0.0 && x < 1.0;
            });
        } else if (a == "--help" || a == "-h") {
            usage();
            std::exit(0);
        } else if (!a.empty() && a[0] == '-') {
            QFATAL("unknown option '", a, "'");
        } else {
            QFATAL_IF(!opts.file.empty(), "multiple input files");
            opts.file = a;
        }
    }
    QFATAL_IF(opts.file.empty(), "no input file (see --help)");
    return opts;
}

Topology
makeDevice(const CliOptions &opts, int qubits)
{
    if (!opts.deviceFile.empty())
        return Topology::fromFile(opts.deviceFile);
    const int fitted = opts.units > 0 ? opts.units : qubits;
    if (opts.topology == "grid")
        return Topology::grid(fitted);
    if (opts.topology == "heavyhex")
        return Topology::heavyHex65();
    if (opts.topology == "ring")
        return Topology::ring(std::max(3, fitted));
    if (opts.topology == "line")
        return Topology::line(fitted);
    QFATAL("unknown topology '", opts.topology, "'");
}

void
report(const std::string &name, const CompileResult &res,
       TablePrinter &table)
{
    table.addRow({name, format("%zu", res.compressions.size()),
                  format("%d", res.metrics.numGates),
                  format("%d", res.metrics.numRoutingGates),
                  format("%.2f", res.metrics.durationNs / 1000.0),
                  format("%.4g", res.metrics.gateEps),
                  format("%.4g", res.metrics.coherenceEps),
                  format("%.4g", res.metrics.totalEps)});
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const CliOptions opts = parse(argc, argv);
        Circuit circuit = parseQasmFile(opts.file);
        if (opts.optimize)
            circuit = optimizeCircuit(circuit);
        if (opts.echoQasm)
            std::fputs(circuit.toQasm().c_str(), stdout);

        CompilerConfig cfg;
        cfg.lookaheadWeight = opts.lookahead;
        GateLibrary lib;
        if (opts.t1Scale != 1.0)
            lib.setT1(lib.t1Qubit() * opts.t1Scale,
                      lib.t1Ququart() * opts.t1Scale);
        if (opts.twoqError > 0.0)
            lib.setQubitGateError(opts.twoqError / 10.0,
                                  opts.twoqError);

        const Topology device = makeDevice(opts, circuit.numQubits());
        std::printf("circuit '%s': %d qubits, %d gates; device %s "
                    "(%d units)\n\n",
                    circuit.name().c_str(), circuit.numQubits(),
                    circuit.numGates(), device.name().c_str(),
                    device.numUnits());

        TablePrinter table({"strategy", "pairs", "gates", "swaps",
                            "dur_us", "gate_eps", "coh_eps",
                            "total_eps"});
        CompileResult chosen;
        if (opts.all) {
            for (const auto &s : standardStrategies()) {
                try {
                    report(s->name(),
                           s->compile(circuit, device, lib, cfg), table);
                } catch (const FatalError &e) {
                    table.addRow({s->name(), "-", "-", "-", "-", "-",
                                  "-", "(does not fit)"});
                }
            }
            chosen = makeStrategy("portfolio")
                         ->compile(circuit, device, lib, cfg);
            report("portfolio", chosen, table);
        } else {
            chosen = makeStrategy(opts.strategy)
                         ->compile(circuit, device, lib, cfg);
            report(opts.strategy, chosen, table);
        }
        table.print(std::cout);

        if (opts.dump) {
            std::printf("\nscheduled physical gates:\n");
            for (const auto &g : chosen.compiled.gates())
                std::printf("  %8.0f ns  %s\n", g.start,
                            g.str().c_str());
        }
        if (opts.verify) {
            const auto rep = checkEquivalence(circuit, chosen.compiled);
            std::printf("\nequivalence: %s (max error %.2e)\n",
                        rep.ok ? "PASS" : rep.message.c_str(),
                        rep.maxError);
            if (!rep.ok)
                return 1;
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
