#include "graph/dag.h"

#include <sstream>

#include "support/hash.h"
#include "support/logging.h"

namespace ft {
namespace graph {

const char *
nodeKindName(NodeKind kind)
{
    switch (kind) {
      case NodeKind::Input: return "input";
      case NodeKind::Conv: return "conv";
      case NodeKind::Dense: return "dense";
      case NodeKind::Pool: return "pool";
      case NodeKind::Bias: return "bias";
      case NodeKind::Relu: return "relu";
      case NodeKind::Add: return "add";
    }
    return "?";
}

int64_t
DagNode::numel() const
{
    int64_t n = 1;
    for (int64_t d : shape)
        n *= d;
    return n;
}

std::vector<std::vector<int>>
ComputeDag::consumers() const
{
    std::vector<std::vector<int>> out(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i)
        for (int in : nodes[i].inputs)
            out[in].push_back(static_cast<int>(i));
    return out;
}

bool
ComputeDag::isOutput(int id) const
{
    for (const auto &n : nodes)
        for (int in : n.inputs)
            if (in == id)
                return false;
    return true;
}

int
ComputeDag::numComputeNodes() const
{
    int n = 0;
    for (const auto &node : nodes)
        n += node.kind != NodeKind::Input;
    return n;
}

namespace {

int
expectedArity(NodeKind kind)
{
    switch (kind) {
      case NodeKind::Input: return 0;
      case NodeKind::Conv: return 2; // data, weight
      case NodeKind::Dense: return 2;
      case NodeKind::Pool: return 1;
      case NodeKind::Bias: return 2; // data, vector
      case NodeKind::Relu: return 1;
      case NodeKind::Add: return 2;
    }
    return -1;
}

bool
fail(std::string *why, const std::string &msg)
{
    if (why)
        *why = msg;
    return false;
}

} // namespace

bool
ComputeDag::validate(std::string *why) const
{
    for (size_t i = 0; i < nodes.size(); ++i) {
        const DagNode &n = nodes[i];
        const std::string at = "node " + std::to_string(i) + " (" +
                               n.name + "): ";
        if (static_cast<int>(n.inputs.size()) != expectedArity(n.kind))
            return fail(why, at + "bad operand count");
        for (int in : n.inputs) {
            if (in < 0 || in >= static_cast<int>(i))
                return fail(why, at + "input " + std::to_string(in) +
                                     " breaks topological order");
        }
        if (n.shape.empty())
            return fail(why, at + "missing shape");
        for (int64_t d : n.shape)
            if (d < 1)
                return fail(why, at + "non-positive extent");

        switch (n.kind) {
          case NodeKind::Input:
            break;
          case NodeKind::Conv: {
            const DagNode &data = nodes[n.inputs[0]];
            const DagNode &weight = nodes[n.inputs[1]];
            if (data.shape.size() != 4)
                return fail(why, at + "conv data must be NCHW");
            if (weight.shape.size() != 4 ||
                weight.shape[0] != n.outChannels ||
                weight.shape[1] != data.shape[1] ||
                weight.shape[2] != n.kernel || weight.shape[3] != n.kernel)
                return fail(why, at + "conv weight shape mismatch");
            int64_t oh = (data.shape[2] + 2 * n.padding - n.kernel) /
                             n.stride + 1;
            int64_t ow = (data.shape[3] + 2 * n.padding - n.kernel) /
                             n.stride + 1;
            if (oh < 1 || ow < 1)
                return fail(why, at + "conv output would be empty");
            std::vector<int64_t> want = {data.shape[0], n.outChannels, oh,
                                         ow};
            if (n.shape != want)
                return fail(why, at + "conv output shape mismatch");
            break;
          }
          case NodeKind::Dense: {
            const DagNode &data = nodes[n.inputs[0]];
            const DagNode &weight = nodes[n.inputs[1]];
            int64_t features = 1;
            for (size_t d = 1; d < data.shape.size(); ++d)
                features *= data.shape[d];
            if (weight.shape.size() != 2 || weight.shape[0] != n.units ||
                weight.shape[1] != features)
                return fail(why, at + "dense weight shape mismatch");
            std::vector<int64_t> want = {data.shape[0], n.units};
            if (n.shape != want)
                return fail(why, at + "dense output shape mismatch");
            break;
          }
          case NodeKind::Pool: {
            const DagNode &data = nodes[n.inputs[0]];
            if (data.shape.size() != 4)
                return fail(why, at + "pool data must be NCHW");
            if (data.shape[2] < n.kernel || data.shape[3] < n.kernel)
                return fail(why, at + "pool window larger than input");
            int64_t oh = (data.shape[2] - n.kernel) / n.stride + 1;
            int64_t ow = (data.shape[3] - n.kernel) / n.stride + 1;
            std::vector<int64_t> want = {data.shape[0], data.shape[1], oh,
                                         ow};
            if (n.shape != want)
                return fail(why, at + "pool output shape mismatch");
            break;
          }
          case NodeKind::Bias: {
            const DagNode &data = nodes[n.inputs[0]];
            const DagNode &vec = nodes[n.inputs[1]];
            if (data.shape.size() < 2)
                return fail(why, at + "bias data must be NC...");
            if (vec.shape.size() != 1 || vec.shape[0] != data.shape[1])
                return fail(why, at + "bias vector shape mismatch");
            if (n.shape != data.shape)
                return fail(why, at + "bias output shape mismatch");
            break;
          }
          case NodeKind::Relu:
            if (n.shape != nodes[n.inputs[0]].shape)
                return fail(why, at + "relu output shape mismatch");
            break;
          case NodeKind::Add:
            if (nodes[n.inputs[0]].shape != nodes[n.inputs[1]].shape)
                return fail(why, at + "add operand shapes differ");
            if (n.shape != nodes[n.inputs[0]].shape)
                return fail(why, at + "add output shape mismatch");
            break;
        }
    }
    return true;
}

std::string
ComputeDag::spec() const
{
    std::ostringstream os;
    os << "dag " << name << " nodes=" << nodes.size() << "\n";
    for (size_t i = 0; i < nodes.size(); ++i) {
        const DagNode &n = nodes[i];
        os << i << " " << nodeKindName(n.kind) << " " << n.name << " in=[";
        for (size_t j = 0; j < n.inputs.size(); ++j)
            os << (j ? "," : "") << n.inputs[j];
        os << "] shape=[";
        for (size_t j = 0; j < n.shape.size(); ++j)
            os << (j ? "," : "") << n.shape[j];
        os << "]";
        if (n.kind == NodeKind::Conv)
            os << " k=" << n.kernel << " s=" << n.stride
               << " p=" << n.padding << " oc=" << n.outChannels;
        else if (n.kind == NodeKind::Pool)
            os << " k=" << n.kernel << " s=" << n.stride;
        else if (n.kind == NodeKind::Dense)
            os << " units=" << n.units;
        os << "\n";
    }
    return os.str();
}

uint64_t
ComputeDag::fingerprint() const
{
    return fnv1a64(spec());
}

ComputeDag
dagFromNetwork(const Network &net)
{
    ComputeDag dag;
    dag.name = net.name;
    FT_ASSERT(net.inputShape.size() == 4, "network input must be NCHW");

    auto push = [&](DagNode n) {
        dag.nodes.push_back(std::move(n));
        return static_cast<int>(dag.nodes.size()) - 1;
    };
    auto input = [&](std::string name, std::vector<int64_t> shape) {
        DagNode n;
        n.kind = NodeKind::Input;
        n.name = std::move(name);
        n.shape = std::move(shape);
        return push(std::move(n));
    };

    int cur = input("data", net.inputShape);
    for (const auto &l : net.layers) {
        // Copy, not a reference: pushing weight/bias inputs below can
        // reallocate dag.nodes and would leave a reference dangling.
        const std::vector<int64_t> in_shape = dag.nodes[cur].shape;
        switch (l.kind) {
          case LayerSpec::Kind::Conv: {
            int w = input(l.name + ".w",
                          {l.outChannels, in_shape[1], l.kernel, l.kernel});
            DagNode conv;
            conv.kind = NodeKind::Conv;
            conv.name = l.name;
            conv.inputs = {cur, w};
            conv.outChannels = l.outChannels;
            conv.kernel = l.kernel;
            conv.stride = l.stride;
            conv.padding = l.padding;
            int64_t oh =
                (in_shape[2] + 2 * l.padding - l.kernel) / l.stride + 1;
            int64_t ow =
                (in_shape[3] + 2 * l.padding - l.kernel) / l.stride + 1;
            conv.shape = {in_shape[0], l.outChannels, oh, ow};
            cur = push(std::move(conv));
            if (l.bias) {
                int b = input(l.name + ".b", {l.outChannels});
                DagNode bias;
                bias.kind = NodeKind::Bias;
                bias.name = l.name + ".bias";
                bias.inputs = {cur, b};
                bias.shape = dag.nodes[cur].shape;
                cur = push(std::move(bias));
            }
            if (l.relu) {
                DagNode relu;
                relu.kind = NodeKind::Relu;
                relu.name = l.name + ".relu";
                relu.inputs = {cur};
                relu.shape = dag.nodes[cur].shape;
                cur = push(std::move(relu));
            }
            break;
          }
          case LayerSpec::Kind::MaxPool: {
            DagNode pool;
            pool.kind = NodeKind::Pool;
            pool.name = l.name;
            pool.inputs = {cur};
            pool.kernel = l.kernel;
            pool.stride = l.stride;
            int64_t oh = (in_shape[2] - l.kernel) / l.stride + 1;
            int64_t ow = (in_shape[3] - l.kernel) / l.stride + 1;
            pool.shape = {in_shape[0], in_shape[1], oh, ow};
            cur = push(std::move(pool));
            break;
          }
          case LayerSpec::Kind::Dense: {
            int64_t features = 1;
            for (size_t d = 1; d < in_shape.size(); ++d)
                features *= in_shape[d];
            int w = input(l.name + ".w", {l.units, features});
            DagNode dense;
            dense.kind = NodeKind::Dense;
            dense.name = l.name;
            dense.inputs = {cur, w};
            dense.units = l.units;
            dense.shape = {in_shape[0], l.units};
            cur = push(std::move(dense));
            if (l.bias) {
                int b = input(l.name + ".b", {l.units});
                DagNode bias;
                bias.kind = NodeKind::Bias;
                bias.name = l.name + ".bias";
                bias.inputs = {cur, b};
                bias.shape = dag.nodes[cur].shape;
                cur = push(std::move(bias));
            }
            if (l.relu) {
                DagNode relu;
                relu.kind = NodeKind::Relu;
                relu.name = l.name + ".relu";
                relu.inputs = {cur};
                relu.shape = dag.nodes[cur].shape;
                cur = push(std::move(relu));
            }
            break;
          }
        }
    }

    std::string why;
    FT_ASSERT(dag.validate(&why), "dagFromNetwork produced invalid DAG: ",
              why);
    return dag;
}

} // namespace graph
} // namespace ft
