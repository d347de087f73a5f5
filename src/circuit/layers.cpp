#include "circuit/layers.hpp"

namespace qaoa::circuit {

std::vector<std::vector<std::size_t>>
asapLayers(const Circuit &circuit)
{
    std::vector<std::vector<std::size_t>> layers(
        static_cast<std::size_t>(layerCount(circuit)));
    forEachAsapLayer(circuit, [&](std::size_t gi, int layer) {
        if (circuit.gates()[gi].type != GateType::BARRIER)
            layers[static_cast<std::size_t>(layer)].push_back(gi);
    });
    return layers;
}

std::vector<int>
gateLayers(const Circuit &circuit)
{
    std::vector<int> layers(circuit.gates().size());
    forEachAsapLayer(circuit,
                     [&](std::size_t gi, int layer) { layers[gi] = layer; });
    return layers;
}

int
layerCount(const Circuit &circuit)
{
    return forEachAsapLayer(circuit, [](std::size_t, int) {});
}

Circuit
withLayerBarriers(const Circuit &circuit)
{
    Circuit out(circuit.numQubits());
    const auto layers = asapLayers(circuit);
    for (std::size_t li = 0; li < layers.size(); ++li) {
        if (li > 0)
            out.add(Gate::barrier());
        for (std::size_t gi : layers[li])
            out.add(circuit.gates()[gi]);
    }
    return out;
}

} // namespace qaoa::circuit
