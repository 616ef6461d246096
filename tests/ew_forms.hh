/**
 * @file
 * Value-returning forms of the element-wise products, for tests that
 * compare whole results: each shapes a fresh destination and runs the
 * library's destination-passing kernel on it.
 */

#ifndef WINOMC_TESTS_EW_FORMS_HH
#define WINOMC_TESTS_EW_FORMS_HH

#include "winograd/conv.hh"

namespace winomc::test {

inline WinoTiles
elementwiseForward(const WinoTiles &X, const WinoWeights &W)
{
    WinoTiles Y(X.alphaEdge(), W.outChannels(), X.batch(), X.tiles());
    elementwiseForwardInto(X, W, Y);
    return Y;
}

inline WinoTiles
elementwiseBackwardData(const WinoTiles &dY, const WinoWeights &W)
{
    WinoTiles dX(dY.alphaEdge(), W.inChannels(), dY.batch(), dY.tiles());
    elementwiseBackwardDataInto(dY, W, dX);
    return dX;
}

inline WinoWeights
elementwiseGradWeights(const WinoTiles &dY, const WinoTiles &X)
{
    WinoWeights dW(X.alphaEdge(), dY.channels(), X.channels());
    elementwiseGradWeightsInto(dY, X, dW);
    return dW;
}

} // namespace winomc::test

#endif // WINOMC_TESTS_EW_FORMS_HH
