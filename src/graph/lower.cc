#include "graph/lower.h"

#include "ops/ops.h"
#include "support/hash.h"
#include "support/logging.h"
#include "support/setup_store.h"

namespace ft {
namespace graph {

namespace {

/**
 * Everything lowerAnchor reads of a DAG: the anchor's kind, a conv's
 * stride and padding, and each operand node's name and shape. Producer
 * ids are not read into the IR, so anchors of different DAGs share it.
 */
struct AnchorKey
{
    NodeKind kind = NodeKind::Conv;
    int64_t stride = 0;
    int64_t padding = 0;
    std::vector<std::string> names;
    std::vector<std::vector<int64_t>> shapes;

    bool operator==(const AnchorKey &) const = default;

    uint64_t hash() const
    {
        Fnv1a h;
        h.word(static_cast<uint64_t>(kind))
            .word(static_cast<uint64_t>(stride))
            .word(static_cast<uint64_t>(padding));
        for (size_t i = 0; i < names.size(); ++i) {
            h.word(names[i].size()).bytes(names[i]).word(shapes[i].size());
            for (int64_t d : shapes[i])
                h.word(static_cast<uint64_t>(d));
        }
        return h.value();
    }
};

/** A lowered anchor's mini-graph: its root and operand placeholders. */
struct AnchorIr
{
    Tensor output;
    std::vector<Tensor> operands;
};

AnchorIr
buildAnchorIr(const AnchorKey &key)
{
    Tensor i = placeholder(key.names[0], key.shapes[0]);
    Tensor w = placeholder(key.names[1], key.shapes[1]);
    if (key.kind == NodeKind::Conv) {
        ops::ConvParams p;
        p.stride = key.stride;
        p.padding = key.padding;
        return {ops::conv2d(i, w, p), {i, w}};
    }
    return {ops::dense(i, w), {i, w}};
}

SetupStore<AnchorKey, AnchorIr> &
anchorStore()
{
    static SetupStore<AnchorKey, AnchorIr> store(kSetupStoreCapacity);
    return store;
}

} // namespace

LoweredAnchor
lowerAnchor(const ComputeDag &dag, int anchorId)
{
    const DagNode &node = dag.nodes[anchorId];
    FT_ASSERT(node.isHeavy(), "lowerAnchor expects a conv/dense node");
    const DagNode &data = dag.nodes[node.inputs[0]];
    const DagNode &weight = dag.nodes[node.inputs[1]];
    AnchorKey key;
    key.kind = node.kind;
    key.names = {data.name, weight.name};
    if (node.kind == NodeKind::Conv) {
        key.stride = node.stride;
        key.padding = node.padding;
        key.shapes = {data.shape, weight.shape};
    } else {
        // Dense reads its activation flattened; the row-major bytes are
        // the same, so the 2D placeholder shares the producer's data
        // verbatim.
        int64_t features = 1;
        for (size_t d = 1; d < data.shape.size(); ++d)
            features *= data.shape[d];
        key.shapes = {{data.shape[0], features}, weight.shape};
    }
    const std::shared_ptr<const AnchorIr> ir =
        anchorStore().get(key, [&] { return buildAnchorIr(key); });
    LoweredAnchor lowered;
    lowered.output = ir->output;
    for (size_t k = 0; k < ir->operands.size(); ++k)
        lowered.operands.emplace_back(node.inputs[k], ir->operands[k]);
    return lowered;
}

size_t
storedAnchors()
{
    return anchorStore().size();
}

BufferMap
bindOperands(const LoweredAnchor &lowered, const DagBuffers &buffers)
{
    BufferMap bound;
    for (const auto &operand : lowered.operands) {
        const DagTensor &src = buffers.at(operand.first);
        Buffer buf(operand.second.op());
        FT_ASSERT(buf.numel() == src.numel(),
                  "operand data does not fit the placeholder");
        buf.data() = src.data;
        bound.emplace(operand.second.op().get(), std::move(buf));
    }
    return bound;
}

void
adoptAnchorOutput(const LoweredAnchor &lowered, const BufferMap &irBuffers,
                  int anchorId, const ComputeDag &dag, DagBuffers &buffers)
{
    const Buffer &out = irBuffers.at(lowered.output.op().get());
    DagTensor t(dag.nodes[anchorId].shape);
    FT_ASSERT(t.numel() == out.numel(),
              "anchor output shape mismatch during adoption");
    t.data = out.data();
    buffers[anchorId] = std::move(t);
}

} // namespace graph
} // namespace ft
